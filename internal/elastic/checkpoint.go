package elastic

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"melissa/internal/atomicfile"
)

// State is one member's shard of a group checkpoint: everything the rank
// needs to re-enter the trajectory at a batch boundary. Weights and
// OptState use the nn/opt binary formats (core.Trainer.CaptureState). App
// is an opaque member-local payload for the application embedding the
// group — the server rides its per-local-rank ingest state here (per-sim
// dedup bitsets and buffer snapshots), so server ingestion rolls back on
// exactly the same shards as the replica weights. App is never adopted from
// a peer's shard on restore.
type State struct {
	Epoch   int // group epoch the shard was written under
	Batch   int // synchronized steps completed
	Samples int // cumulative sample count at Batch

	Weights  []byte
	OptState []byte

	App []byte
}

// shardPath names member m's shard at a batch boundary. The batch is part
// of the name so shards from different boundaries coexist and a rollback
// can purge only the stale future ones.
func shardPath(dir string, member, batch int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-m%d-b%d.ckpt", member, batch))
}

// ReadState reads a shard file (Session.SaveShard).
func ReadState(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st State
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("elastic: decode %s: %w", filepath.Base(path), err)
	}
	return &st, nil
}

// loadShard reads member m's shard at exactly batch, or os.ErrNotExist.
func loadShard(dir string, member, batch int) (*State, error) {
	return ReadState(shardPath(dir, member, batch))
}

// shardFile is one shard on disk: a member's state at a batch boundary.
type shardFile struct {
	path          string
	member, batch int
}

// listShards lists every shard in dir, in no particular order.
func listShards(dir string) ([]shardFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-m*-b*.ckpt"))
	if err != nil {
		return nil, err
	}
	var shards []shardFile
	for _, p := range paths {
		s := shardFile{path: p}
		if _, err := fmt.Sscanf(filepath.Base(p), "shard-m%d-b%d.ckpt", &s.member, &s.batch); err == nil {
			shards = append(shards, s)
		}
	}
	return shards, nil
}

// newestShards maps each member to the newest batch ≤ maxBatch at which it
// has a shard; a member with none is absent.
func newestShards(shards []shardFile, maxBatch int) map[int]int {
	newest := make(map[int]int)
	for _, s := range shards {
		if b, ok := newest[s.member]; s.batch <= maxBatch && (!ok || s.batch > b) {
			newest[s.member] = s.batch
		}
	}
	return newest
}

// latestShardAtOrBefore returns the newest batch ≤ maxBatch for which
// member m has a shard, or ok=false.
func latestShardAtOrBefore(dir string, member, maxBatch int) (int, bool) {
	shards, err := listShards(dir)
	if err != nil {
		return 0, false
	}
	b, ok := newestShards(shards, maxBatch)[member]
	return b, ok
}

// removeShards deletes every shard that drop selects.
func removeShards(shards []shardFile, drop func(shardFile) bool) error {
	var firstErr error
	for _, s := range shards {
		if drop(s) {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// purgeShardsAbove deletes every shard past the rollback point. Run during
// reconfiguration, before any member restores, so a shard written beyond
// the committed manifest (by a rank that advanced further than the group
// checkpoint before the fault) can never be mistaken for current state.
func purgeShardsAbove(dir string, batch int) error {
	shards, err := listShards(dir)
	if err != nil {
		return err
	}
	return removeShards(shards, func(s shardFile) bool { return s.batch > batch })
}

// pruneShardsBelow deletes, once a manifest at batch is committed, every
// shard older than its member's newest shard at or before batch: no restore
// reads it again. What LoadState reads stays — the shards at batch, and a
// member's own newest shard at or before it (a rejoiner's App) — and so
// does every shard above batch, for the next commit or rollback to settle.
func pruneShardsBelow(dir string, batch int) error {
	shards, err := listShards(dir)
	if err != nil {
		return err
	}
	newest := newestShards(shards, batch)
	return removeShards(shards, func(s shardFile) bool {
		b, ok := newest[s.member]
		return ok && s.batch < b
	})
}

// Manifest is the committed group checkpoint: the coordinator writes it
// once every current member has reported a shard at Batch, making Batch
// the group-wide rollback point.
type Manifest struct {
	Epoch   int
	Batch   int
	Members []int // membership whose shards at Batch form the checkpoint
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// writeManifest commits a manifest atomically: the manifest is the group's
// commit point, and a restore trusts whatever it finds there.
func writeManifest(dir string, m Manifest) error {
	return atomicfile.Write(manifestPath(dir), func(w io.Writer) error { return gob.NewEncoder(w).Encode(&m) })
}

// loadManifest reads the committed manifest; ok=false means no group
// checkpoint has ever been committed (a fresh run).
func loadManifest(dir string) (Manifest, bool, error) {
	f, err := os.Open(manifestPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	defer f.Close()
	var m Manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return Manifest{}, false, fmt.Errorf("elastic: decode manifest: %w", err)
	}
	return m, true, nil
}
