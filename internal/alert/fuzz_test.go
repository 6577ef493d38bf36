package alert

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeEvent feeds arbitrary bytes to the one wire decoder every
// consumer uses, through both the v1 envelope and the legacy flat shim. It
// must never panic, and whatever it accepts must survive a re-encode
// unchanged: DecodeEvent(EncodeEvent(DecodeEvent(x))) == DecodeEvent(x).
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range sampleEvents(&testing.T{}) {
		env, err := EncodeEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		legacy, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(legacy)
		f.Add(env[:len(env)/2])
	}
	for _, s := range []string{
		`{}`,
		`{"v":1}`,
		`{"v":2,"type":"alarm"}`,
		`{"v":-1}`,
		`{"v":1,"payload":{"sensors":[]}}`,
		`{"sensors":[],"incident":{"suspects":[{"sensors":[]}]}}`,
		`{"v":1,"ts":"2026-08-08T12:00:00+02:00","payload":{"incident":{}}}`,
		`{"time":"0001-01-01T01:00:00+01:00"}`,
		`{"incident":{"closedAt":"0001-01-01T01:00:00+01:00"}}`,
		`{"V":1,"Type":"alarm","payload":null}`,
		`null`,
		`[]`,
		`"v"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			return
		}
		wire, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("decoded event %+v does not encode: %v", ev, err)
		}
		again, err := DecodeEvent(wire)
		if err != nil {
			t.Fatalf("re-encoded event %s does not decode: %v", wire, err)
		}
		if !reflect.DeepEqual(again, ev) {
			t.Fatalf("re-encode changed the event:\n first %+v\nsecond %+v\n  wire %s", ev, again, wire)
		}
	})
}
