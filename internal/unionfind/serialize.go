package unionfind

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Binary layout (version 1, little-endian):
//
//	magic "UFv1" | u32 n | u32 count | n × i32 parent | n × u8 rank
//
// The format exists for the engine's checkpoint file: it round-trips the
// exact forest (including interior parent pointers) so a resumed run
// continues merging into the same structure. The rank bytes are a vestige of
// union by rank: they are written as zero and ignored on read, so files
// written before union by minimum still load.

var ufMagic = [4]byte{'U', 'F', 'v', '1'}

// ErrCorrupt is wrapped by every decode failure.
var ErrCorrupt = errors.New("unionfind: corrupt serialized data")

// AppendBinary appends the serialized forest to dst and returns it. It may
// run concurrently with Find, Same and Union: each parent entry is read once,
// atomically, and the count is that of the roots read. Every entry read names
// an element of the entry's set, so the snapshot is a forest whose partition
// refines every later one.
func (u *UF) AppendBinary(dst []byte) []byte {
	n := len(u.parent)
	dst = append(dst, ufMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the count, once the roots are known
	roots := 0
	for i := range u.parent {
		p := u.parent[i].Load()
		if p == int32(i) {
			roots++
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(roots))
	return append(dst, make([]byte, n)...)
}

// UnmarshalBinary replaces u's state with the serialized forest. Corrupted or
// truncated input, a parent chain that closes a cycle included, returns an
// error wrapping ErrCorrupt and leaves u untouched; it never panics. It must
// not run concurrently with any other method.
func (u *UF) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("%w: %d bytes, want >= 12", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != ufMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	count := int(binary.LittleEndian.Uint32(data[8:12]))
	if want := 12 + 5*n; len(data) != want {
		if len(data) < want {
			return fmt.Errorf("%w: truncated at offset %d for n=%d, want %d bytes", ErrCorrupt, len(data), n, want)
		}
		return fmt.Errorf("%w: %d trailing bytes at offset %d for n=%d", ErrCorrupt, len(data)-want, want, n)
	}
	if count < 0 || count > n {
		return fmt.Errorf("%w: count %d out of [0,%d]", ErrCorrupt, count, n)
	}
	parent := make([]atomic.Int32, n)
	roots := 0
	for i := range parent {
		p := int32(binary.LittleEndian.Uint32(data[12+4*i:]))
		if p < 0 || int(p) >= n {
			return fmt.Errorf("%w: parent[%d] = %d out of [0,%d)", ErrCorrupt, i, p, n)
		}
		if int(p) == i {
			roots++
		}
		parent[i].Store(p)
	}
	if roots != count {
		return fmt.Errorf("%w: %d roots but count %d", ErrCorrupt, roots, count)
	}
	// Walk each chain until it meets a root or an earlier walk: meeting this
	// walk's own stamp is a cycle, which would make Find spin.
	walk := make([]int32, n)
	for i := range parent {
		for x := int32(i); walk[x] == 0 && parent[x].Load() != x; x = parent[x].Load() {
			walk[x] = int32(i) + 1
			if walk[parent[x].Load()] == int32(i)+1 {
				return fmt.Errorf("%w: parent chain from %d closes a cycle", ErrCorrupt, i)
			}
		}
	}
	u.parent = parent
	u.count.Store(int64(count))
	return nil
}
