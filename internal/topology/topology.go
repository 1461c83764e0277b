// Package topology parses PANDA-style deployment files (Section VI-A:
// "this tool allows us to specify the experiment setup within a text
// formatted topology file"). A file describes brokers, overlay links,
// publishers, and subscribers, one declaration per line:
//
//	# comment
//	broker  B001 addr=127.0.0.1:7001 bw=300000 delay=0.0001,0.001
//	link    B001 B002
//	publisher pub-YHOO broker=B001 adv="[class,=,'STOCK'],[symbol,=,'YHOO']"
//	subscriber s1 broker=B002 filter="[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19]"
//
// cmd/panda deploys parsed files as live TCP processes-in-threads.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/greenps/greenps/internal/message"
)

// Broker declares one broker process.
type Broker struct {
	ID string
	// Addr is the TCP listen address.
	Addr string
	// OutputBandwidth is the throttle in bytes/s (0 = unthrottled).
	OutputBandwidth float64
	// Delay is the matching-delay model.
	Delay message.MatchingDelayFn
}

// Link declares one overlay edge. A file declares each edge once, in
// either direction, between two distinct brokers.
type Link struct {
	A, B string
}

// Publisher declares one publisher client.
type Publisher struct {
	ID     string
	Broker string
	// AdvID defaults to "ADV-"+ID.
	AdvID string
	// Predicates is the advertisement filter.
	Predicates []message.Predicate
}

// Subscriber declares one subscriber client.
type Subscriber struct {
	ID         string
	Broker     string
	Predicates []message.Predicate
}

// File is a parsed topology.
type File struct {
	Brokers     []Broker
	Links       []Link
	Publishers  []Publisher
	Subscribers []Subscriber
}

// declKeys lists the keys each declaration accepts; a link takes two
// positional broker IDs instead. A key outside its declaration's list is
// an error, so a misspelt one cannot silently drop a filter or a
// throttle.
var declKeys = map[string][]string{
	"broker":     {"addr", "bw", "delay"},
	"link":       nil,
	"publisher":  {"broker", "advid", "adv"},
	"subscriber": {"broker", "filter"},
}

// Parse reads a topology file.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	brokerIDs := make(map[string]bool)
	linkLines := make(map[Link]int) // each link, either way round, to its line
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("topology: line %d: incomplete declaration", lineNo)
		}
		kind, name := fields[0], fields[1]
		keys, known := declKeys[kind]
		if !known {
			return nil, fmt.Errorf("topology: line %d: unknown declaration %q", lineNo, kind)
		}
		var kv map[string]string
		if kind != "link" { // link declarations take positional broker IDs
			kv, err = keyValues(kind, fields[2:], keys)
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
			}
		}
		switch kind {
		case "broker":
			b := Broker{ID: name, Addr: kv["addr"]}
			if b.Addr == "" {
				return nil, fmt.Errorf("topology: line %d: broker %s needs addr=", lineNo, name)
			}
			if v := kv["bw"]; v != "" {
				if b.OutputBandwidth, err = strconv.ParseFloat(v, 64); err != nil {
					return nil, fmt.Errorf("topology: line %d: bw: %w", lineNo, err)
				}
			}
			if v := kv["delay"]; v != "" {
				parts := strings.SplitN(v, ",", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("topology: line %d: delay needs perSub,base", lineNo)
				}
				if b.Delay.PerSub, err = strconv.ParseFloat(parts[0], 64); err != nil {
					return nil, fmt.Errorf("topology: line %d: delay: %w", lineNo, err)
				}
				if b.Delay.Base, err = strconv.ParseFloat(parts[1], 64); err != nil {
					return nil, fmt.Errorf("topology: line %d: delay: %w", lineNo, err)
				}
			}
			if brokerIDs[name] {
				return nil, fmt.Errorf("topology: line %d: duplicate broker %s", lineNo, name)
			}
			brokerIDs[name] = true
			f.Brokers = append(f.Brokers, b)
		case "link":
			if len(fields) != 3 {
				return nil, fmt.Errorf("topology: line %d: link needs exactly two broker IDs", lineNo)
			}
			// A deployment dials each declared link: a second declaration of
			// the pair would dial it again, and the new connection replaces
			// and closes the one in use.
			l := Link{A: name, B: fields[2]}
			if l.A == l.B {
				return nil, fmt.Errorf("topology: line %d: link from broker %s to itself", lineNo, l.A)
			}
			if prev, dup := linkLines[l]; dup {
				return nil, fmt.Errorf("topology: line %d: link %s %s repeats line %d", lineNo, l.A, l.B, prev)
			}
			linkLines[l], linkLines[Link{A: l.B, B: l.A}] = lineNo, lineNo
			f.Links = append(f.Links, l)
		case "publisher":
			p := Publisher{ID: name, Broker: kv["broker"], AdvID: kv["advid"]}
			if p.Broker == "" {
				return nil, fmt.Errorf("topology: line %d: publisher %s needs broker=", lineNo, name)
			}
			if p.AdvID == "" {
				p.AdvID = "ADV-" + name
			}
			if v := kv["adv"]; v != "" {
				if p.Predicates, err = message.ParsePredicates(v); err != nil {
					return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
				}
			}
			f.Publishers = append(f.Publishers, p)
		case "subscriber":
			s := Subscriber{ID: name, Broker: kv["broker"]}
			if s.Broker == "" {
				return nil, fmt.Errorf("topology: line %d: subscriber %s needs broker=", lineNo, name)
			}
			if v := kv["filter"]; v != "" {
				if s.Predicates, err = message.ParsePredicates(v); err != nil {
					return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
				}
			}
			f.Subscribers = append(f.Subscribers, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	return f, f.validate()
}

// validate cross-checks references.
func (f *File) validate() error {
	ids := make(map[string]bool, len(f.Brokers))
	for _, b := range f.Brokers {
		ids[b.ID] = true
	}
	for _, l := range f.Links {
		if !ids[l.A] || !ids[l.B] {
			return fmt.Errorf("topology: link %s-%s references unknown broker", l.A, l.B)
		}
	}
	for _, p := range f.Publishers {
		if !ids[p.Broker] {
			return fmt.Errorf("topology: publisher %s references unknown broker %s", p.ID, p.Broker)
		}
	}
	for _, s := range f.Subscribers {
		if !ids[s.Broker] {
			return fmt.Errorf("topology: subscriber %s references unknown broker %s", s.ID, s.Broker)
		}
	}
	return nil
}

// splitFields splits a line on whitespace, honoring double-quoted values
// (quotes are stripped).
func splitFields(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
		case (r == ' ' || r == '\t') && !inQuote:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out, nil
}

// keyValues parses key=value fields.
func keyValues(kind string, fields, keys []string) (map[string]string, error) {
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return nil, fmt.Errorf("expected key=value, got %q", f)
		}
		if !slices.Contains(keys, f[:i]) {
			return nil, fmt.Errorf("%s takes no key %q (keys: %s)", kind, f[:i], strings.Join(keys, ", "))
		}
		out[f[:i]] = f[i+1:]
	}
	return out, nil
}
