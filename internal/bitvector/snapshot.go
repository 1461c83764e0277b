package bitvector

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
)

// VectorSnapshot is a serializable image of a Vector. Words are encoded as
// base64 of little-endian uint64s to keep BIA messages compact.
type VectorSnapshot struct {
	First int    `json:"first"`
	Last  int    `json:"last"`
	Cap   int    `json:"cap"`
	Words string `json:"words"`
}

// Snapshot captures the vector's full state.
func (v *Vector) Snapshot() VectorSnapshot {
	buf := make([]byte, 8*len(v.words))
	for i, w := range v.words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return VectorSnapshot{
		First: v.firstID,
		Last:  v.lastID,
		Cap:   v.capacity,
		Words: base64.StdEncoding.EncodeToString(buf),
	}
}

// FromSnapshot reconstructs a vector from its snapshot. A snapshot arrives
// from another broker, so this is where the Vector invariants are enforced
// on outside input: the window fits the capacity, the word count matches it,
// and no bit is set at or past the end of the window. An image that breaks
// any of them is rejected, not repaired — a sender whose windows and bits
// disagree has no load estimate worth keeping.
func FromSnapshot(s VectorSnapshot) (*Vector, error) {
	if s.Cap <= 0 {
		return nil, fmt.Errorf("bitvector: snapshot capacity %d must be positive", s.Cap)
	}
	// Last = First−1 is the empty window; anything lower is no window.
	if s.Last < s.First && s.Last != s.First-1 {
		return nil, fmt.Errorf("bitvector: snapshot window [%d,%d] is negative", s.First, s.Last)
	}
	// The unsigned difference is the exact width less one even where First
	// and Last are too far apart for Last−First to fit an int.
	if s.Last >= s.First && uint64(s.Last)-uint64(s.First) >= uint64(s.Cap) {
		return nil, fmt.Errorf("bitvector: snapshot window [%d,%d] exceeds capacity %d", s.First, s.Last, s.Cap)
	}
	raw, err := base64.StdEncoding.DecodeString(s.Words)
	if err != nil {
		return nil, fmt.Errorf("bitvector: decode snapshot words: %w", err)
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("bitvector: snapshot words length %d not a multiple of 8", len(raw))
	}
	if need := s.Cap/wordBits + min(s.Cap%wordBits, 1); len(raw)/8 != need {
		return nil, fmt.Errorf("bitvector: snapshot has %d words, capacity %d needs %d", len(raw)/8, s.Cap, need)
	}
	v := &Vector{firstID: s.First, lastID: s.Last, capacity: s.Cap, words: make([]uint64, len(raw)/8)}
	win := v.Window()
	for i := range v.words {
		w := binary.LittleEndian.Uint64(raw[8*i:])
		if rem := max(win-i*wordBits, 0); rem < wordBits && w&^maskLow(rem) != 0 {
			return nil, fmt.Errorf("bitvector: snapshot has a set bit past its %d-bit window", win)
		}
		v.words[i] = w
	}
	v.recount() // restore the cached popcount invariant
	return v, nil
}

// ProfileSnapshot is a serializable image of a Profile.
type ProfileSnapshot struct {
	Cap     int                       `json:"cap"`
	Vectors map[string]VectorSnapshot `json:"vectors"`
}

// Snapshot captures the profile's full state.
func (p *Profile) Snapshot() ProfileSnapshot {
	out := ProfileSnapshot{Cap: p.capacity, Vectors: make(map[string]VectorSnapshot, len(p.entries))}
	for _, e := range p.entries {
		out.Vectors[e.advID] = e.vec.Snapshot()
	}
	return out
}

// ProfileFromSnapshot reconstructs a profile.
func ProfileFromSnapshot(s ProfileSnapshot) (*Profile, error) {
	p := NewProfile(s.Cap)
	keys := make([]string, 0, len(s.Vectors))
	for k := range s.Vectors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, advID := range keys {
		v, err := FromSnapshot(s.Vectors[advID])
		if err != nil {
			return nil, fmt.Errorf("bitvector: profile vector %q: %w", advID, err)
		}
		p.entries = append(p.entries, entry{advID, v}) // ascending: keys sorted above
	}
	return p, nil
}
