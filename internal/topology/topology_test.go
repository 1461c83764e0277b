package topology

import (
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

const sample = `
# three brokers in a chain
broker  B001 addr=127.0.0.1:7001 bw=300000 delay=0.0001,0.001
broker  B002 addr=127.0.0.1:7002 bw=150000 delay=0.0001,0.001
broker  B003 addr=127.0.0.1:7003

link    B001 B002
link    B002 B003

publisher pub-YHOO broker=B001 adv="[class,=,'STOCK'],[symbol,=,'YHOO']"
subscriber s1 broker=B002 filter="[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19]"
subscriber s2 broker=B003 filter="[class,=,'STOCK'],[symbol,=,'YHOO']"
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Brokers) != 3 || len(f.Links) != 2 || len(f.Publishers) != 1 || len(f.Subscribers) != 2 {
		t.Fatalf("parsed %d/%d/%d/%d", len(f.Brokers), len(f.Links), len(f.Publishers), len(f.Subscribers))
	}
	b := f.Brokers[0]
	if b.ID != "B001" || b.Addr != "127.0.0.1:7001" || b.OutputBandwidth != 300000 {
		t.Fatalf("broker = %+v", b)
	}
	if b.Delay.PerSub != 0.0001 || b.Delay.Base != 0.001 {
		t.Fatalf("delay = %+v", b.Delay)
	}
	p := f.Publishers[0]
	if p.AdvID != "ADV-pub-YHOO" || len(p.Predicates) != 2 {
		t.Fatalf("publisher = %+v", p)
	}
	s := f.Subscribers[0]
	if len(s.Predicates) != 3 {
		t.Fatalf("subscriber predicates = %v", s.Predicates)
	}
	if s.Predicates[2].Op != message.OpLt || !s.Predicates[2].Value.Equal(message.Number(19)) {
		t.Fatalf("threshold predicate = %v", s.Predicates[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unknown kind", "gadget X addr=1"},
		{"broker without addr", "broker B1 bw=5"},
		{"duplicate broker", "broker B1 addr=a:1\nbroker B1 addr=a:2"},
		{"bad bw", "broker B1 addr=a:1 bw=lots"},
		{"bad delay", "broker B1 addr=a:1 delay=fast"},
		{"link unknown broker", "broker B1 addr=a:1\nlink B1 B9"},
		{"link incomplete", "broker B1 addr=a:1\nlink B1"},
		{"publisher unknown broker", "publisher p broker=B9"},
		{"publisher missing broker", "publisher p advid=A"},
		{"subscriber unknown broker", "subscriber s broker=B9"},
		{"bad filter", `broker B1 addr=a:1` + "\n" + `subscriber s broker=B1 filter="[x,~~,1]"`},
		{"bad key=value", "broker B1 addr=a:1 oops"},
		{"unterminated quote", `broker B1 addr=a:1 note="half`},
		{"misspelt filter key", `broker B1 addr=a:1` + "\n" + `subscriber s1 broker=B1 filtr="[class,=,'STOCK']"`},
		{"unknown broker key", "broker B1 addr=a:1 bandwidth=5"},
		{"link with three IDs", "broker B1 addr=a:1\nbroker B2 addr=a:2\nbroker B3 addr=a:3\nlink B1 B2 B3"},
		{"repeated link", "broker B1 addr=a:1\nbroker B2 addr=a:2\nlink B1 B2\nlink B1 B2"},
		{"reversed link", "broker B1 addr=a:1\nbroker B2 addr=a:2\nlink B1 B2\nlink B2 B1"},
		{"self link", "broker B1 addr=a:1\nlink B1 B1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
		})
	}
	// A repeated link names both of its lines.
	_, err := Parse(strings.NewReader("broker B1 addr=a:1\nbroker B2 addr=a:2\nlink B1 B2\nlink B2 B1"))
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("reversed link: error %v, want one naming lines 3 and 4", err)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	f, err := Parse(strings.NewReader("\n# nothing here\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Brokers) != 0 {
		t.Fatal("phantom brokers")
	}
}

func TestPublisherDefaults(t *testing.T) {
	f, err := Parse(strings.NewReader("broker B1 addr=a:1\npublisher p1 broker=B1"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Publishers[0].AdvID != "ADV-p1" {
		t.Fatalf("defaults = %+v", f.Publishers[0])
	}
}
