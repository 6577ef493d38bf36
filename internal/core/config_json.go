package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ParseRCMode is the inverse of RCMode.String: it maps the mode name back to
// the mode, so JSON config files and API bodies can spell modes by name.
func ParseRCMode(s string) (RCMode, error) {
	switch s {
	case "sliding", "":
		return RCSliding, nil
	case "cumulative":
		return RCCumulative, nil
	case "exponential":
		return RCExponential, nil
	default:
		return 0, fmt.Errorf("%w: unknown RC mode %q (want sliding, cumulative, or exponential)", ErrBadConfig, s)
	}
}

// configJSON is the JSON wire format of Config, shared by POST /v1/streams
// bodies and the caddetect/cadserve -config files. Field names are stable;
// RCMode travels as its string name. Every field is always emitted so a
// marshal→unmarshal round trip is lossless — except "incremental",
// "approxTSG" and "approxSeed", which older documents carry: they are
// accepted and discarded, and never emitted.
type configJSON struct {
	Window               windowingJSON `json:"window"`
	K                    int           `json:"k"`
	Tau                  float64       `json:"tau"`
	Theta                float64       `json:"theta"`
	Eta                  float64       `json:"eta"`
	SigmaFloor           float64       `json:"sigmaFloor"`
	MinHistory           int           `json:"minHistory"`
	HistoryHorizon       int           `json:"historyHorizon"`
	RCMode               string        `json:"rcMode"`
	RCHorizon            int           `json:"rcHorizon"`
	RCAlpha              float64       `json:"rcAlpha"`
	RefreshEvery         int           `json:"refreshEvery"`
	DisableVariationRule bool          `json:"disableVariationRule"`
	FixedXi              int           `json:"fixedXi"`
	// Incremental is read and discarded (see Config.Incremental).
	Incremental bool `json:"incremental,omitempty"`
	// These two selected an HNSW-built TSG, which is gone: they are read
	// and discarded, so a stored config runs exact.
	ApproxTSG  bool  `json:"approxTSG,omitempty"`
	ApproxSeed int64 `json:"approxSeed,omitempty"`
}

type windowingJSON struct {
	W int `json:"w"`
	S int `json:"s"`
}

// MarshalJSON renders the config in the shared wire format (see configJSON).
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(configJSON{
		Window:               windowingJSON{W: c.Window.W, S: c.Window.S},
		K:                    c.K,
		Tau:                  c.Tau,
		Theta:                c.Theta,
		Eta:                  c.Eta,
		SigmaFloor:           c.SigmaFloor,
		MinHistory:           c.MinHistory,
		HistoryHorizon:       c.HistoryHorizon,
		RCMode:               c.RCMode.String(),
		RCHorizon:            c.RCHorizon,
		RCAlpha:              c.RCAlpha,
		RefreshEvery:         c.RefreshEvery,
		DisableVariationRule: c.DisableVariationRule,
		FixedXi:              c.FixedXi,
	})
}

// UnmarshalJSON parses the shared wire format. Unknown fields are rejected,
// so a typoed parameter in a config file or API body fails loudly instead of
// silently running with the default. Fields absent from the document keep
// their zero value; validation happens later in Config.Validate.
func (c *Config) UnmarshalJSON(data []byte) error {
	var aux configJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	mode, err := ParseRCMode(aux.RCMode)
	if err != nil {
		return err
	}
	c.Window.W, c.Window.S = aux.Window.W, aux.Window.S
	c.K = aux.K
	c.Tau = aux.Tau
	c.Theta = aux.Theta
	c.Eta = aux.Eta
	c.SigmaFloor = aux.SigmaFloor
	c.MinHistory = aux.MinHistory
	c.HistoryHorizon = aux.HistoryHorizon
	c.RCMode = mode
	c.RCHorizon = aux.RCHorizon
	c.RCAlpha = aux.RCAlpha
	c.RefreshEvery = aux.RefreshEvery
	c.DisableVariationRule = aux.DisableVariationRule
	c.FixedXi = aux.FixedXi
	return nil
}
