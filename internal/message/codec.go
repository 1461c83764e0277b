package message

import (
	"encoding/json"
	"fmt"
)

// Encode validates an envelope and serializes it to JSON. A publication
// goes through the publication writer, every other kind through
// encoding/json; the bytes are json.Marshal's either way.
func Encode(e *Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
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

// Decode deserializes and validates an envelope from JSON.
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("message: decode envelope: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}
