package message

import (
	"encoding/json"
	"fmt"

	"github.com/greenps/greenps/internal/bitvector"
)

// ProfileWire is the on-the-wire form of a bit-vector profile inside a BIA
// message.
type ProfileWire struct {
	Snapshot bitvector.ProfileSnapshot `json:"snap"`
}

// PackProfiles fills the ProfileData field of every SubscriptionInfo from
// its in-memory Profile, preparing a BrokerInfo for encoding.
func (b *BrokerInfo) PackProfiles() {
	for i := range b.Subscriptions {
		si := &b.Subscriptions[i]
		if si.Profile != nil {
			si.ProfileData = &ProfileWire{Snapshot: si.Profile.Snapshot()}
		}
	}
}

// UnpackProfiles reconstructs the in-memory Profiles of every
// SubscriptionInfo from their wire form after decoding. Subscriptions with
// no wire profile get a fresh empty profile so downstream code never sees a
// nil Profile.
func (b *BrokerInfo) UnpackProfiles() error {
	for i := range b.Subscriptions {
		si := &b.Subscriptions[i]
		if si.ProfileData == nil {
			if si.Profile == nil {
				si.Profile = bitvector.NewProfile(0)
			}
			continue
		}
		p, err := bitvector.ProfileFromSnapshot(si.ProfileData.Snapshot)
		if err != nil {
			return fmt.Errorf("message: unpack profile for %s: %w", si.Sub.ID, err)
		}
		si.Profile = p
	}
	return nil
}

// PreEncode validates the envelope and packs any embedded profiles,
// preparing it for direct JSON serialization. Encode calls it
// internally; streaming encoders that marshal the envelope themselves
// (e.g. the transport's frame encoder) must call it first.
func PreEncode(e *Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Kind == KindBIA && e.BIA != nil {
		for i := range e.BIA.Infos {
			e.BIA.Infos[i].PackProfiles()
		}
	}
	return nil
}

// Encode serializes an envelope to JSON, packing any embedded profiles. A
// publication goes through the publication writer, every other kind
// through encoding/json; the bytes are json.Marshal's either way.
func Encode(e *Envelope) ([]byte, error) {
	if err := PreEncode(e); err != nil {
		return nil, err
	}
	var data []byte
	var err error
	if e.Kind == KindPublication {
		// Room for the envelope's fixed text and ~24 bytes per attribute,
		// so a stock quote is written in one allocation.
		hint := 64 + len(e.Pub.AdvID) + 24*len(e.Pub.Attrs)
		data, err = AppendPublication(make([]byte, 0, hint), e.Pub, e.Pub.Hops)
	} else {
		data, err = json.Marshal(e)
	}
	if err != nil {
		return nil, fmt.Errorf("message: encode envelope: %w", err)
	}
	return data, nil
}

// Decode deserializes an envelope from JSON, unpacking any embedded
// profiles.
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("message: decode envelope: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if e.Kind == KindBIA && e.BIA != nil {
		for i := range e.BIA.Infos {
			if err := e.BIA.Infos[i].UnpackProfiles(); err != nil {
				return nil, err
			}
		}
	}
	return &e, nil
}
