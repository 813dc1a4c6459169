package ingest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/resilience"
)

// Snapshot is a checksummed, atomically written copy of the accumulated
// consumption matrix plus the bookkeeping that lets recovery skip the
// WAL generations it covers. On-disk format (all little-endian):
//
//	[8-byte magic "STPTSNP\x01"]
//	u32 cx, u32 cy, u32 ct
//	u64 upto      — newest WAL generation folded into the matrix
//	u64 batches   — total batches folded (monotone across snapshots)
//	u64 accepted  — total readings folded
//	cx*cy*ct f64  — matrix cells, index (t*cy + y)*cx + x
//	u32 CRC32(everything above)
//
// The encoding is canonical: DecodeSnapshot accepts exactly the bytes
// EncodeSnapshot produces, so every valid snapshot re-encodes to the
// identical file — the round-trip FuzzSnapshotDecode relies on this.
type Snapshot struct {
	Cx, Cy, Ct int
	Upto       uint64 // WAL generations <= Upto are folded in
	Batches    uint64
	Accepted   uint64
	Cells      []float64
}

var snapMagic = [8]byte{'S', 'T', 'P', 'T', 'S', 'N', 'P', 1}

const snapFixedLen = 8 + 3*4 + 3*8 + 4 // magic + dims + counters + crc

// ErrSnapshotCorrupt marks a snapshot whose bytes do not parse or do
// not checksum. Because snapshots are written atomically, a torn file
// is impossible; corruption here is real damage and recovery must
// refuse rather than rebuild a silently different matrix.
var ErrSnapshotCorrupt = errors.New("ingest: snapshot corrupt")

// Matrix materialises the snapshot's cells as a consumption matrix.
func (s *Snapshot) Matrix() *grid.Matrix {
	m := grid.NewMatrix(s.Cx, s.Cy, s.Ct)
	copy(m.Data(), s.Cells)
	return m
}

// EncodeSnapshot renders the canonical byte form.
func EncodeSnapshot(s *Snapshot) []byte {
	out := make([]byte, 0, snapFixedLen+8*len(s.Cells))
	out = append(out, snapMagic[:]...)
	var tmp [8]byte
	for _, d := range []int{s.Cx, s.Cy, s.Ct} {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(d))
		out = append(out, tmp[:4]...)
	}
	for _, c := range []uint64{s.Upto, s.Batches, s.Accepted} {
		binary.LittleEndian.PutUint64(tmp[:], c)
		out = append(out, tmp[:]...)
	}
	for _, v := range s.Cells {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		out = append(out, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(out))
	return append(out, tmp[:4]...)
}

// DecodeSnapshot parses and validates a snapshot. It must hold against
// arbitrary bytes (it is the FuzzSnapshotDecode target): dimensions are
// bounded, the length is exact for the dimensions, every cell is
// finite, and the checksum covers everything before it.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < snapFixedLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed layout", ErrSnapshotCorrupt, len(b))
	}
	if [8]byte(b[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	sum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	s := &Snapshot{
		Cx: int(binary.LittleEndian.Uint32(b[8:12])),
		Cy: int(binary.LittleEndian.Uint32(b[12:16])),
		Ct: int(binary.LittleEndian.Uint32(b[16:20])),
	}
	s.Upto = binary.LittleEndian.Uint64(b[20:28])
	s.Batches = binary.LittleEndian.Uint64(b[28:36])
	s.Accepted = binary.LittleEndian.Uint64(b[36:44])
	if s.Cx <= 0 || s.Cy <= 0 || s.Ct <= 0 ||
		s.Cx > datasets.MaxGridSide || s.Cy > datasets.MaxGridSide || s.Ct > datasets.MaxGridSide {
		return nil, fmt.Errorf("%w: dimensions %dx%dx%d out of range", ErrSnapshotCorrupt, s.Cx, s.Cy, s.Ct)
	}
	cells := int64(s.Cx) * int64(s.Cy) * int64(s.Ct)
	if cells > maxMatrixCells {
		return nil, fmt.Errorf("%w: %d cells exceeds the supported %d", ErrSnapshotCorrupt, cells, maxMatrixCells)
	}
	if want := int64(snapFixedLen) + 8*cells; int64(len(b)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %dx%dx%d, want %d", ErrSnapshotCorrupt, len(b), s.Cx, s.Cy, s.Ct, want)
	}
	s.Cells = make([]float64, cells)
	for i := range s.Cells {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[44+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite cell %d", ErrSnapshotCorrupt, i)
		}
		s.Cells[i] = v
	}
	return s, nil
}

// WriteSnapshot commits the snapshot atomically: temp file, fsync,
// rename. A crash at any instant leaves either the previous snapshot or
// the complete new one, never a torn file. Writes run through the
// filesystem fault seam, so exhaustion drills can fail a snapshot
// mid-write and assert compaction degrades cleanly. The snapshot is
// created 0644 less the umask, as the WAL it folds is.
func WriteSnapshot(ctx context.Context, path string, s *Snapshot) error {
	return resilience.AtomicWriteFile(ctx, path, 0o644, func(w io.Writer) error {
		_, err := w.Write(EncodeSnapshot(s))
		return err
	})
}

// LoadSnapshot reads and validates the snapshot at path. A missing file
// returns (nil, nil): the log simply has no snapshot yet.
func LoadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: reading snapshot: %w", err)
	}
	s, derr := DecodeSnapshot(b)
	if derr != nil {
		return nil, fmt.Errorf("%w (%s)", derr, path)
	}
	return s, nil
}
