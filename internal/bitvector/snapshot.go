package bitvector

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
)

// VectorSnapshot is a serializable image of a Vector. Words are the grid
// words as stored — the first holds First, ID i at bit i mod 64 — encoded as
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
// on outside input: the window fits the capacity, the word count is the
// capacity's grid size, and no bit is set outside the window — below First in
// the first word, above Last in the word that holds it, or anywhere in a
// later word. An image that breaks any of them is rejected, not repaired — a
// sender whose windows and bits disagree has no load estimate worth keeping.
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
	if need := gridWords(s.Cap); len(raw)/8 != need {
		return nil, fmt.Errorf("bitvector: snapshot has %d words, capacity %d needs %d", len(raw)/8, s.Cap, need)
	}
	v := &Vector{firstID: s.First, lastID: s.Last, capacity: s.Cap, words: make([]uint64, len(raw)/8)}
	// The window's bits of its first and of its last grid word. An empty
	// window needs no case of its own: either the two masks share no bit of
	// word 0, or First opens a grid word and lastWord is −1.
	head := ^uint64(0) << uint(s.First&63)
	tail := ^uint64(0) >> uint(63-s.Last&63)
	lastWord := s.Last>>6 - s.First>>6
	for i := range v.words {
		w := binary.LittleEndian.Uint64(raw[8*i:])
		in := ^uint64(0)
		if i == 0 {
			in &= head
		}
		if i == lastWord {
			in &= tail
		}
		if i > lastWord {
			in = 0
		}
		if w&^in != 0 {
			return nil, fmt.Errorf("bitvector: snapshot has a set bit outside its window [%d,%d]", s.First, s.Last)
		}
		v.words[i] = w
		v.count += bits.OnesCount64(w)
	}
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

// ProfileFromSnapshot reconstructs a profile. Every vector must have the
// profile's capacity (DefaultCapacity when Cap is not positive), as every
// profile built in process does: the kernels AND and OR a profile's vectors
// word by word against other profiles of its capacity.
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
		if v.capacity != p.capacity {
			return nil, fmt.Errorf("bitvector: profile vector %q has capacity %d, its profile %d", advID, v.capacity, p.capacity)
		}
		p.entries = append(p.entries, entry{advID: advID, vec: *v}) // ascending: keys sorted above
	}
	return p, nil
}

// MarshalJSON writes the profile as its Snapshot, the form a BIA carries.
func (p *Profile) MarshalJSON() ([]byte, error) { return json.Marshal(p.Snapshot()) }

// UnmarshalJSON reads a Snapshot back through ProfileFromSnapshot, so a
// profile arriving from another broker passes every check FromSnapshot
// makes on outside input.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var s ProfileSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("bitvector: decode profile: %w", err)
	}
	q, err := ProfileFromSnapshot(s)
	if err != nil {
		return err
	}
	*p = *q
	return nil
}
