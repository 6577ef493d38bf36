package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzConfigJSON drives arbitrary documents through the Config wire
// format. Any input the parser accepts must reach a byte-exact fixed
// point — Marshal(Unmarshal(doc)) must itself survive another
// Unmarshal→Marshal unchanged — and an input with fields the format does
// not know must be rejected (the DisallowUnknownFields contract, here
// checked by re-adding a typo to accepted documents).
func FuzzConfigJSON(f *testing.F) {
	if seed, err := json.Marshal(DefaultConfig(26, 10000)); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"window":{"w":200,"s":4},"k":10,"tau":0.5,"rcMode":"cumulative"}`))
	f.Add([]byte(`{"rcMode":"exponential","rcAlpha":0.2,"approxTSG":true,"approxSeed":-7}`))
	f.Add([]byte(`{"incremental":false,"k":3}`))
	f.Add([]byte(`{"approxTSG":true,"k":3}`))
	f.Add([]byte(`{"approxSeed":42,"approxTSG":false}`))
	f.Add([]byte(`{"k":3,"typo":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		var cfg Config
		if err := json.Unmarshal(doc, &cfg); err != nil {
			return // rejected input is out of contract
		}
		wire, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v (%+v)", err, cfg)
		}
		var back Config
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("own output rejected: %v (%s)", err, wire)
		}
		if back != cfg {
			t.Fatalf("round trip lost state:\n got %+v\nwant %+v\nwire %s", back, cfg, wire)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, again) {
			t.Fatalf("no fixed point:\n first %s\nsecond %s", wire, again)
		}
		// The format stays closed: grafting an unknown field onto a valid
		// document must flip it from accepted to rejected.
		tainted := append([]byte(`{"zzz_unknown":1,`), wire[1:]...)
		if err := json.Unmarshal(tainted, &back); err == nil {
			t.Fatalf("unknown field accepted: %s", tainted)
		}
	})
}
