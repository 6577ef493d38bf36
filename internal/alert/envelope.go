package alert

import (
	"encoding/json"
	"fmt"
	"time"
)

// EnvelopeVersion is the wire-schema version every sink emits today.
const EnvelopeVersion = 1

// Envelope is the versioned wire frame shared by every delivery surface —
// SSE data fields, webhook POST bodies, and the NDJSON file sink all carry
// exactly this shape:
//
//	{"v":1,"type":"alarm","stream":"web-7","seq":42,"ts":"…","payload":{…}}
//
// The routing fields every consumer needs (type, stream, sequence, time)
// sit at the top level; everything event-specific lives under payload, so
// new event kinds extend the payload without breaking consumers that only
// route. Before the envelope each sink hand-rolled its own flat shape;
// DecodeEvent still accepts that legacy form as a compatibility shim.
type Envelope struct {
	// V is the schema version (EnvelopeVersion).
	V int `json:"v"`
	// Type classifies the event (see Type).
	Type Type `json:"type"`
	// Stream is the emitting stream's id ("" for fleet- or manager-level
	// events).
	Stream string `json:"stream,omitempty"`
	// Seq is the bus-assigned delivery number.
	Seq uint64 `json:"seq"`
	// TS is the event's wall-clock instant.
	TS time.Time `json:"ts"`
	// Payload carries the event-specific fields.
	Payload Payload `json:"payload"`
}

// Payload is the event-specific body of an envelope: the Event minus its
// routing fields. Zero-valued fields are omitted.
type Payload struct {
	AnomalyID  int       `json:"anomalyId,omitempty"`
	Round      int       `json:"round,omitempty"`
	Tick       int       `json:"tick,omitempty"`
	Score      float64   `json:"score,omitempty"`
	Variations int       `json:"variations,omitempty"`
	Sensors    []int     `json:"sensors,omitempty"`
	Start      int       `json:"start,omitempty"`
	End        int       `json:"end,omitempty"`
	Reason     string    `json:"reason,omitempty"`
	Incident   *Incident `json:"incident,omitempty"`
}

// Envelope wraps the event in the v1 wire frame.
func (e Event) Envelope() Envelope {
	return Envelope{
		V:      EnvelopeVersion,
		Type:   e.Type,
		Stream: e.Stream,
		Seq:    e.Seq,
		TS:     e.Time,
		Payload: Payload{
			AnomalyID:  e.AnomalyID,
			Round:      e.Round,
			Tick:       e.Tick,
			Score:      e.Score,
			Variations: e.Variations,
			Sensors:    e.Sensors,
			Start:      e.Start,
			End:        e.End,
			Reason:     e.Reason,
			Incident:   e.Incident,
		},
	}
}

// Event unwraps the envelope back into the bus event it framed.
func (env Envelope) Event() Event {
	p := env.Payload
	return Event{
		Seq:        env.Seq,
		Stream:     env.Stream,
		Type:       env.Type,
		Time:       env.TS,
		AnomalyID:  p.AnomalyID,
		Round:      p.Round,
		Tick:       p.Tick,
		Score:      p.Score,
		Variations: p.Variations,
		Sensors:    p.Sensors,
		Start:      p.Start,
		End:        p.End,
		Reason:     p.Reason,
		Incident:   p.Incident,
	}
}

// EncodeEvent renders ev in the v1 wire envelope — the one encoder every
// sink and the SSE feed share.
func EncodeEvent(ev Event) ([]byte, error) {
	data, err := json.Marshal(ev.Envelope())
	if err != nil {
		return nil, fmt.Errorf("alert: encode event: %w", err)
	}
	return data, nil
}

// DecodeEvent parses one wire event: the v1 envelope, or — compatibility
// shim — the legacy flat shape the sinks emitted before the envelope
// existed (no "v" member, every field at the top level). Consumers and
// old NDJSON archives go through this one entry point, so the legacy
// shape can be retired without touching them. An envelope with an
// unknown version is an error rather than a silent partial decode.
func DecodeEvent(data []byte) (Event, error) {
	var probe struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Event{}, fmt.Errorf("alert: decode event: %w", err)
	}
	var ev Event
	switch probe.V {
	case 0: // legacy flat shape predating the envelope
		if err := json.Unmarshal(data, &ev); err != nil {
			return Event{}, fmt.Errorf("alert: decode legacy event: %w", err)
		}
	case EnvelopeVersion:
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			return Event{}, fmt.Errorf("alert: decode event envelope: %w", err)
		}
		ev = env.Event()
	default:
		return Event{}, fmt.Errorf("alert: unsupported event envelope version %d", probe.V)
	}
	// The encoder omits empty sensor lists and a zero ClosedAt, so decode
	// them as the values that encode that way: a decoded event then
	// re-encodes to bytes that decode to the same event.
	if len(ev.Sensors) == 0 {
		ev.Sensors = nil
	}
	if inc := ev.Incident; inc != nil {
		if inc.ClosedAt.IsZero() {
			inc.ClosedAt = time.Time{}
		}
		for i := range inc.Suspects {
			if len(inc.Suspects[i].Sensors) == 0 {
				inc.Suspects[i].Sensors = nil
			}
		}
	}
	return ev, nil
}
