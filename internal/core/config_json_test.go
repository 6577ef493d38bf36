package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"testing"

	"cad/internal/mts"
)

func TestParseRCMode(t *testing.T) {
	cases := []struct {
		in      string
		want    RCMode
		wantErr bool
	}{
		{"sliding", RCSliding, false},
		{"", RCSliding, false},
		{"cumulative", RCCumulative, false},
		{"exponential", RCExponential, false},
		{"Sliding", 0, true},
		{"ewma", 0, true},
	}
	for _, c := range cases {
		got, err := ParseRCMode(c.in)
		if c.wantErr {
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("ParseRCMode(%q) err = %v, want ErrBadConfig", c.in, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseRCMode(%q) = %v, %v, want %v", c.in, got, err, c.want)
		}
	}
	// Every mode's String must parse back to itself.
	for _, m := range []RCMode{RCSliding, RCCumulative, RCExponential} {
		back, err := ParseRCMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseRCMode(%v.String()) = %v, %v", m, back, err)
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig(26, 10000)},
		{"zero", Config{}},
		{"cumulative", Config{
			Window: mts.Windowing{W: 200, S: 4}, K: 10, Tau: 0.5, Theta: 0.3,
			Eta: 3, RCMode: RCCumulative,
		}},
		{"exponential", Config{
			Window: mts.Windowing{W: 64, S: 8}, K: 7, Tau: 0.45, Theta: 0.25,
			Eta: 2.5, SigmaFloor: 0.75, MinHistory: 12, HistoryHorizon: 100,
			RCMode: RCExponential, RCAlpha: 0.2, RefreshEvery: 16,
		}},
		{"ablation", Config{
			Window: mts.Windowing{W: 30, S: 3}, K: 3, Tau: 0.4, Theta: 0.2,
			Eta: 3, DisableVariationRule: true, FixedXi: 2,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf, err := json.Marshal(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var back Config
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", buf, err)
			}
			if back != c.cfg {
				t.Errorf("round trip lost state:\n got %+v\nwant %+v\nwire %s", back, c.cfg, buf)
			}
		})
	}
}

func TestConfigJSONWireFormat(t *testing.T) {
	cfg := Config{Window: mts.Windowing{W: 200, S: 4}, K: 10, Tau: 0.5, RCMode: RCCumulative}
	buf, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["rcMode"] != "cumulative" {
		t.Errorf("rcMode travels as %v, want the string name", raw["rcMode"])
	}
	win, ok := raw["window"].(map[string]any)
	if !ok || win["w"] != float64(200) || win["s"] != float64(4) {
		t.Errorf("window = %v", raw["window"])
	}
	// Every field is always emitted, so documents are self-describing.
	for _, key := range []string{"k", "tau", "theta", "eta", "sigmaFloor", "minHistory",
		"historyHorizon", "rcHorizon", "rcAlpha", "refreshEvery",
		"disableVariationRule", "fixedXi"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("wire format missing %q: %s", key, buf)
		}
	}
	for _, key := range []string{"incremental", "approxTSG", "approxSeed"} {
		if _, ok := raw[key]; ok {
			t.Errorf("wire format still emits the retired %q key: %s", key, buf)
		}
	}
}

// TestConfigJSONIncrementalKeyIgnored: documents written while
// "incremental" chose the streaming pipeline, or "approxTSG" and
// "approxSeed" an HNSW-built TSG, keep loading, and none of the keys takes
// a stream off the exact incremental path.
func TestConfigJSONIncrementalKeyIgnored(t *testing.T) {
	const base = `{"window":{"w":30,"s":3},"k":3,"tau":0.4,"theta":0.2,"eta":3,"minHistory":8,`
	for _, retired := range []string{`"incremental":false`, `"approxTSG":true,"approxSeed":42`, `"approxSeed":-7`} {
		doc := base + retired + "}"
		var cfg Config
		if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
			t.Fatalf("Unmarshal(%s) = %v", doc, err)
		}
		det, err := NewDetector(8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Run the first round: the accumulator is empty until then.
		sr := NewStreamer(det)
		if _, err := sr.PushSeries(synth(1, 2, 4, cfg.Window.W, nil, -1, -1)); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := sr.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		var st persistedStreamer
		if err := gob.NewDecoder(&snap).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if !st.HasAcc {
			t.Fatalf("%s: streamer saved no correlation accumulator", retired)
		}
		wire, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var again Config
		if err := json.Unmarshal([]byte(string(wire[:len(wire)-1])+","+retired+"}"), &again); err != nil || again != cfg {
			t.Fatalf("%s: re-adding the retired key changed the config: %v, %+v vs %+v", retired, err, again, cfg)
		}
	}
}

func TestConfigJSONErrors(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"unknown-top-level", `{"k":3,"typo":1}`},
		{"unknown-in-window", `{"window":{"w":30,"s":3,"x":1}}`},
		{"bad-mode", `{"rcMode":"ewma"}`},
		{"wrong-type", `{"k":"three"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cfg Config
			if err := json.Unmarshal([]byte(c.doc), &cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Unmarshal(%s) = %v, want ErrBadConfig", c.doc, err)
			}
		})
	}
	// Absent fields keep their zero value rather than erroring; validation
	// is Config.Validate's job.
	var cfg Config
	if err := json.Unmarshal([]byte(`{}`), &cfg); err != nil {
		t.Errorf("empty document = %v", err)
	}
	if cfg != (Config{}) {
		t.Errorf("empty document produced %+v", cfg)
	}
}
