package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"pace/internal/unionfind"
	"pace/internal/vfs"
)

// Checkpoint is a versioned snapshot of the master's clustering state: the
// union-find forest plus the pair high-water counters. A killed run restarts
// from it by seeding the new run's initial labels with the checkpointed
// partition — pairs inside already-merged clusters are then skipped instead
// of re-aligned, so completed work is not repeated.
//
// On-disk format (version 1, little-endian):
//
//	magic "PACECKPT" | u32 version
//	| u32 numESTs | u32 window | u32 psi     (run fingerprint)
//	| u64 seq                                (monotonic write counter)
//	| i64 processed | i64 accepted | i64 skipped | i64 merges
//	| u32 ufLen | union-find blob
//	| u32 CRC-32 (IEEE) of everything before it
type Checkpoint struct {
	// NumESTs, Window, Psi fingerprint the run the snapshot belongs to;
	// Validate rejects a resume against different inputs or parameters.
	NumESTs int
	Window  int
	Psi     int
	// Seq increments on every write, so readers can tell snapshots apart.
	Seq uint64
	// Pair counters as of the snapshot (high-water marks, monotonic).
	PairsProcessed int64
	PairsAccepted  int64
	PairsSkipped   int64
	Merges         int64
	// UF is the cluster structure.
	UF *unionfind.UF
}

const (
	checkpointMagic   = "PACECKPT"
	checkpointVersion = 1
	// CheckpointFile is the snapshot's name inside the checkpoint directory.
	CheckpointFile = "pace.ckpt"
)

// Labels returns the checkpointed partition as dense cluster labels, ready
// for Config.InitialLabels.
func (ck *Checkpoint) Labels() []int32 { return ck.UF.Labels() }

// Validate checks the checkpoint belongs to a run over the same inputs and
// clustering parameters.
func (ck *Checkpoint) Validate(numESTs, window, psi int) error {
	if ck.NumESTs != numESTs {
		return fmt.Errorf("cluster: checkpoint is for %d ESTs, run has %d", ck.NumESTs, numESTs)
	}
	if ck.Window != window || ck.Psi != psi {
		return fmt.Errorf("cluster: checkpoint parameters (w=%d, psi=%d) differ from run (w=%d, psi=%d)",
			ck.Window, ck.Psi, window, psi)
	}
	return nil
}

func (ck *Checkpoint) encode() []byte {
	b := append([]byte{}, checkpointMagic...)
	b = binary.LittleEndian.AppendUint32(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(ck.NumESTs))
	b = binary.LittleEndian.AppendUint32(b, uint32(ck.Window))
	b = binary.LittleEndian.AppendUint32(b, uint32(ck.Psi))
	b = binary.LittleEndian.AppendUint64(b, ck.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.PairsProcessed))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.PairsAccepted))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.PairsSkipped))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Merges))
	uf := ck.UF.AppendBinary(nil)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(uf)))
	b = append(b, uf...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	const header = 8 + 4 + 3*4 + 5*8 + 4 // everything before the UF blob
	if len(b) < header+4 {
		return nil, fmt.Errorf("cluster: checkpoint truncated at %d bytes", len(b))
	}
	if string(b[:8]) != checkpointMagic {
		return nil, fmt.Errorf("cluster: bad checkpoint magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != checkpointVersion {
		return nil, fmt.Errorf("cluster: checkpoint version %d, this build reads %d", v, checkpointVersion)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("cluster: checkpoint CRC mismatch (got %#x, want %#x)", got, want)
	}
	ck := &Checkpoint{
		NumESTs:        int(binary.LittleEndian.Uint32(b[12:])),
		Window:         int(binary.LittleEndian.Uint32(b[16:])),
		Psi:            int(binary.LittleEndian.Uint32(b[20:])),
		Seq:            binary.LittleEndian.Uint64(b[24:]),
		PairsProcessed: int64(binary.LittleEndian.Uint64(b[32:])),
		PairsAccepted:  int64(binary.LittleEndian.Uint64(b[40:])),
		PairsSkipped:   int64(binary.LittleEndian.Uint64(b[48:])),
		Merges:         int64(binary.LittleEndian.Uint64(b[56:])),
	}
	ufLen := int(binary.LittleEndian.Uint32(b[64:]))
	if header+ufLen+4 != len(b) {
		return nil, fmt.Errorf("cluster: checkpoint UF blob length %d inconsistent with %d-byte file", ufLen, len(b))
	}
	ck.UF = unionfind.New(0)
	if err := ck.UF.UnmarshalBinary(b[header : header+ufLen]); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint union-find: %w", err)
	}
	return ck, nil
}

// WriteCheckpointFS durably persists the snapshot to dir/CheckpointFile
// through the filesystem seam (vfs.WriteAtomic), so a crash or power loss
// mid-write leaves the previous snapshot intact. Servers and crash-window
// sweeps route it through a fault-injecting vfs.FS. Returns the number of
// bytes written.
func WriteCheckpointFS(fsys vfs.FS, dir string, ck *Checkpoint) (int, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	data := ck.encode()
	err := vfs.WriteAtomic(fsys, dir, CheckpointFile, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: checkpoint write: %w", err)
	}
	return len(data), nil
}

// LoadCheckpoint reads and verifies dir/CheckpointFile.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		return nil, fmt.Errorf("cluster: checkpoint read: %w", err)
	}
	return decodeCheckpoint(data)
}

// checkpointer drives periodic snapshots from the engine's hot loop. nil
// (no Dir configured) disables everything.
type checkpointer struct {
	cfg     CheckpointConfig
	numESTs int
	window  int
	psi     int
	st      *Stats
	log     *slog.Logger

	// clock is the engine's time base: the sequential wall clock or the
	// rank's virtual Comm.Elapsed, so snapshot cadence replays identically
	// in simulation.
	clock func() time.Duration

	seq  uint64
	last time.Duration
}

func newCheckpointer(cfg Config, numESTs int, st *Stats, clock func() time.Duration) *checkpointer {
	if cfg.Checkpoint.Dir == "" {
		return nil
	}
	return &checkpointer{
		cfg: cfg.Checkpoint, numESTs: numESTs, window: cfg.Window, psi: cfg.Psi,
		st: st, log: cfg.logger(), clock: clock, last: clock(),
	}
}

// maybe writes a snapshot when Interval has passed on the engine's clock
// since the last one, or unconditionally with force (the final snapshot).
// uf is serialized before maybe returns, so the caller keeps mutating it.
func (ck *checkpointer) maybe(uf *unionfind.UF, processed, accepted, skipped, merges int64, force bool) error {
	if ck == nil {
		return nil
	}
	if !force && ck.clock()-ck.last < ck.cfg.interval() {
		return nil
	}
	ck.last = ck.clock()
	ck.seq++
	n, err := WriteCheckpointFS(ck.cfg.fs(), ck.cfg.Dir, &Checkpoint{
		NumESTs: ck.numESTs, Window: ck.window, Psi: ck.psi, Seq: ck.seq,
		PairsProcessed: processed, PairsAccepted: accepted,
		PairsSkipped: skipped, Merges: merges, UF: uf,
	})
	if err != nil {
		return err
	}
	ck.st.Recovery.Checkpoints++
	ck.st.Recovery.CheckpointBytes += int64(n)
	ck.log.Info("checkpoint written",
		"dir", ck.cfg.Dir, "seq", ck.seq, "bytes", n,
		"pairs_processed", processed, "merges", merges, "forced", force)
	return nil
}
