package core

import (
	"fmt"

	"cad/internal/louvain"
	"cad/internal/mts"
	"cad/internal/stats"
)

// BatchRounds is the independent per-round oracle of the equivalence
// suites. It shares nothing with the streaming round but the co-appearance
// advance: every window of series gets a two-pass stats.PearsonMatrix, a
// TSG from Builder.FromCorrelation and a cold louvain.Communities, and only
// then det's advance. Round and WindowEnd are relative to series, as in a
// Detect result. det's state advances, so warming up is one call on the
// history series with the reports discarded.
func BatchRounds(det *Detector, series *mts.MTS) ([]RoundReport, error) {
	wd := det.cfg.Window
	var reps []RoundReport
	for r := 0; r < wd.Rounds(series.Len()); r++ {
		win, err := wd.Window(series, r)
		if err != nil {
			return nil, err
		}
		corr, err := stats.PearsonMatrix(win.Rows())
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		g, err := det.builder.FromCorrelation(corr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rep := det.advance(louvain.Communities(g))
		rep.Round = r
		_, rep.WindowEnd = wd.Bounds(r)
		reps = append(reps, rep)
	}
	return reps, nil
}

// window returns a copy of the streamer's trailing window in time order.
// Only valid once the ring is full, when pos is the oldest slot.
func (s *Streamer) window() *mts.MTS {
	win := mts.Zeros(len(s.ring), s.det.cfg.Window.W)
	for i, r := range s.ring {
		copy(win.Row(i), r[s.pos:])
		copy(win.Row(i)[len(r)-s.pos:], r[:s.pos])
	}
	return win
}
