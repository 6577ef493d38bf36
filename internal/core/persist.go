package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"cad/internal/louvain"
)

// persistedState is the gob wire format of a Detector. Fields are exported
// for encoding only; the format is versioned so a stale snapshot fails
// loudly instead of resuming with garbage.
type persistedState struct {
	Version    int
	N          int
	Config     Config
	Round      int
	HavePrev   bool
	PrevOf     []int
	PrevCnt    int
	SumS       []float64
	Ring       [][]float64
	RingPos    int
	RCRounds   int
	Outlier    []bool
	HistN      int
	HistMean   float64
	HistM2     float64
	HistRing   []float64
	HistPos    int
	HistFilled int
	// PrevOff and PrevNbr are the latest round's TSG adjacency (CSR
	// offsets and neighbor ids). The first round after a restore diffs
	// its graph against them to pick warm or cold Louvain as the saved
	// detector would have; snapshots without them run that round cold.
	PrevOff, PrevNbr []int
}

const persistVersion = 1

// SaveState serializes the detector's full streaming state — configuration,
// co-appearance history, outlier set, and the n_r statistics — so a process
// restart can resume detection without repeating the warm-up.
func (d *Detector) SaveState(w io.Writer) error {
	st := persistedState{
		Version:  persistVersion,
		N:        d.n,
		Config:   d.cfg,
		Round:    d.round,
		HavePrev: d.havePrev,
		SumS:     d.sumS,
		Ring:     d.ring,
		RingPos:  d.ringPos,
		RCRounds: d.rcRounds,
		Outlier:  d.outlier,
	}
	if d.havePrev {
		st.PrevOf = d.prevPart.Of
		st.PrevCnt = d.prevPart.Count
	}
	st.HistN, st.HistMean, st.HistM2 = d.hist.run.State()
	st.HistRing = d.hist.ring
	st.HistPos = d.hist.pos
	st.HistFilled = d.hist.filled
	st.PrevOff, st.PrevNbr = d.prevOff, d.prevNbr // restored, no round run since
	if d.incTSG != nil {
		st.PrevOff, st.PrevNbr, _ = d.incTSG.Graph().CSR()
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("cad: save state: %w", err)
	}
	return nil
}

// LoadDetector reconstructs a detector from a SaveState snapshot. The
// returned detector continues exactly where the saved one stopped.
func LoadDetector(r io.Reader) (*Detector, error) {
	var st persistedState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("cad: load state: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d", ErrBadConfig, st.Version, persistVersion)
	}
	// Every array is checked against the header before NewDetector sizes
	// its own from it, so a corrupt header cannot demand a huge allocation
	// or leave a cursor pointing outside its ring.
	if len(st.SumS) != st.N || len(st.Outlier) != st.N {
		return nil, fmt.Errorf("%w: snapshot arrays sized for %d sensors, header says %d", ErrBadConfig, len(st.SumS), st.N)
	}
	if st.HavePrev {
		if len(st.PrevOf) != st.N {
			return nil, fmt.Errorf("%w: snapshot partition sized %d, want %d", ErrBadConfig, len(st.PrevOf), st.N)
		}
		if st.PrevCnt < 1 || st.PrevCnt > st.N || slices.ContainsFunc(st.PrevOf, func(c int) bool { return c < 0 || c >= st.PrevCnt }) {
			return nil, fmt.Errorf("%w: snapshot partition ids outside [0, %d) or count outside [1, %d]", ErrBadConfig, st.PrevCnt, st.N)
		}
	}
	if st.Config.RCMode == RCSliding {
		horizon := st.Config.RCHorizon
		if horizon == 0 {
			horizon = 10
		}
		if len(st.Ring) != st.N {
			return nil, fmt.Errorf("%w: snapshot ring sized %d, want %d", ErrBadConfig, len(st.Ring), st.N)
		}
		for _, r := range st.Ring {
			if len(r) != horizon {
				return nil, fmt.Errorf("%w: snapshot ring horizon %d, want %d", ErrBadConfig, len(r), horizon)
			}
		}
		if st.RingPos < 0 || st.RingPos >= horizon {
			return nil, fmt.Errorf("%w: snapshot ring position %d outside horizon %d", ErrBadConfig, st.RingPos, horizon)
		}
	}
	if h := st.Config.HistoryHorizon; h > 0 {
		if len(st.HistRing) != h {
			return nil, fmt.Errorf("%w: snapshot history horizon %d, want %d", ErrBadConfig, len(st.HistRing), h)
		}
		if st.HistPos < 0 || st.HistPos >= h || st.HistFilled < 0 || st.HistFilled > h {
			return nil, fmt.Errorf("%w: snapshot history position %d with %d of %d filled", ErrBadConfig, st.HistPos, st.HistFilled, h)
		}
	}
	d, err := NewDetector(st.N, st.Config)
	if err != nil {
		return nil, fmt.Errorf("cad: load state: %w", err)
	}
	d.round = st.Round
	d.havePrev = st.HavePrev
	if st.HavePrev {
		d.prevPart = louvain.Partition{Of: st.PrevOf, Count: st.PrevCnt}
	}
	copy(d.sumS, st.SumS)
	if d.ring != nil {
		for v := range d.ring {
			copy(d.ring[v], st.Ring[v])
		}
		d.ringPos = st.RingPos
	}
	d.rcRounds = st.RCRounds
	copy(d.outlier, st.Outlier)
	d.prevOff, d.prevNbr = st.PrevOff, st.PrevNbr
	d.hist.run.SetState(st.HistN, st.HistMean, st.HistM2)
	if d.hist.ring != nil {
		copy(d.hist.ring, st.HistRing)
		d.hist.pos = st.HistPos
		d.hist.filled = st.HistFilled
	}
	return d, nil
}
