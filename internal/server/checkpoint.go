package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/elastic"
)

// ingestState is the server's ingest state at a batch boundary (§3.1:
// checkpoint + message log): per local rank, the sim accounting — dedup
// bitsets, goodbye flags — and the buffer contents. Each rank's entry is a
// consistent cut of that rank: every sample it has received is either
// already trained at the boundary or in its buffer snapshot, so a server
// restored from it neither loses nor repeats a sample. It rides gob-encoded
// in elastic.State.App, the member's shard — a lone process's as much as a
// group member's — and is only ever restored by the server that wrote it.
type ingestState struct {
	Sims      []map[int32]SimState
	BufSeen   [][]buffer.Sample
	BufUnseen [][]buffer.Sample
}

// captureIngest takes the ingest cut of every local rank at a step
// boundary, from the trainer's OnBatchEnd: every rank has trained its batch
// and none has extracted its next, so the journals are marked and the cut
// taken at one batch for all of them.
func (s *Server) captureIngest(batches int) *ingestState {
	ranks := s.cfg.Ranks
	ing := &ingestState{
		Sims:      make([]map[int32]SimState, ranks),
		BufSeen:   make([][]buffer.Sample, ranks),
		BufUnseen: make([][]buffer.Sample, ranks),
	}
	for r, a := range s.aggs {
		if s.journals != nil {
			s.journals[r].mark(batches)
		}
		// One cut of the rank: under the buffer lock nothing is inserted or
		// extracted, and a frame is logged as received only inside the
		// insertion's critical section (Server.commit), so the log copied
		// here and the contents snapshotted here agree on every sample.
		s.bufs[r].WithLock(func(p *buffer.Policy) {
			ing.BufSeen[r], ing.BufUnseen[r] = p.Snapshot()
			a.mu.Lock()
			sims := make(map[int32]SimState, len(a.sims))
			for id, st := range a.sims {
				c := *st
				c.Seen = append([]uint64(nil), st.Seen...)
				sims[id] = c
			}
			a.mu.Unlock()
			ing.Sims[r] = sims
		})
	}
	return ing
}

// state completes a boundary's checkpoint: the ingest cut plus the weights,
// optimizer state and sample count tr holds at that step edge.
func (ing *ingestState) state(tr *core.Trainer, batches int) (*elastic.State, error) {
	w, o, err := tr.CaptureState()
	if err != nil {
		return nil, err
	}
	var app bytes.Buffer
	if err := gob.NewEncoder(&app).Encode(ing); err != nil {
		return nil, err
	}
	return &elastic.State{
		Batch:    batches,
		Samples:  tr.Samples(),
		Weights:  w,
		OptState: o,
		App:      app.Bytes(),
	}, nil
}

// decodeIngest decodes a State's ingest payload and checks its shape
// against the configured rank count. Every per-rank slice is indexed by
// rank on restore, and their lengths come from the file.
func decodeIngest(app []byte, ranks int) (*ingestState, error) {
	var ing ingestState
	if err := gob.NewDecoder(bytes.NewReader(app)).Decode(&ing); err != nil {
		return nil, fmt.Errorf("server: decoding ingest state: %w", err)
	}
	if len(ing.Sims) != ranks || len(ing.BufSeen) != ranks || len(ing.BufUnseen) != ranks {
		return nil, fmt.Errorf("server: ingest state has %d/%d/%d ranks (sims/seen/unseen), config has %d",
			len(ing.Sims), len(ing.BufSeen), len(ing.BufUnseen), ranks)
	}
	return &ing, nil
}

// restoreIngest loads a (re)starting server's own ingest state: dedup
// bitsets, goodbye accounting and buffer contents per local rank, then
// recomputes each rank's reception from them. Frames streamed while the
// server was down are gone, so it resumes from exactly what was captured.
// Call before the aggregators start.
func (s *Server) restoreIngest(st *elastic.State) error {
	if len(st.App) == 0 {
		return nil // absent at the checkpoint: adopt weights only, ingest fresh
	}
	ing, err := decodeIngest(st.App, s.cfg.Ranks)
	if err != nil {
		return err
	}
	// A buffer row is the model's width; a sample of any other comes from a
	// different model or a corrupt file and would be lost to ReplaceContents.
	for r := range ing.Sims {
		for _, smp := range slices.Concat(ing.BufSeen[r], ing.BufUnseen[r]) {
			if len(smp.Input) != s.inDim || len(smp.Output) != s.outDim {
				return fmt.Errorf("server: checkpointed sample (%d, %d) is %d→%d wide, the model %d→%d",
					smp.SimID, smp.Step, len(smp.Input), len(smp.Output), s.inDim, s.outDim)
			}
		}
	}
	for r, a := range s.aggs {
		seen, unseen := ing.BufSeen[r], ing.BufUnseen[r]
		s.bufs[r].ReplaceContents(func(curSeen, curUnseen []buffer.Sample) ([]buffer.Sample, []buffer.Sample) {
			// No aggregator has run, so the current contents are empty;
			// keep them anyway for safety.
			return append(seen, curSeen...), append(unseen, curUnseen...)
		})
		if s.journals != nil {
			s.journals[r].mark(st.Batch)
		}
		a.mu.Lock()
		a.sims = make(map[int32]*SimState, len(ing.Sims[r]))
		a.goodbyes = 0
		for id, sim := range ing.Sims[r] {
			cp := sim
			// Clamp like the live Hello path: a crafted Steps past the
			// tracking cap would make receptionComplete demand steps
			// markSeen can never record.
			cp.Steps = clampSteps(cp.Steps)
			a.sims[id] = &cp
			if cp.Goodbye {
				a.goodbyes++
			}
		}
		a.mu.Unlock()
		// If the ensemble had already completed for this rank, reception
		// is over and the buffer only needs draining.
		s.endIfComplete(a)
	}
	return nil
}
