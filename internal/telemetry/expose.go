package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// formatFloat renders a float the way Prometheus text exposition expects
// (shortest round-trip representation, +Inf spelled literally).
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labeled joins the registry's constant labels with extra label pairs
// into a rendered {..} block ("" when there are none).
func labeled(constLabels string, extra ...string) string {
	l := constLabels
	for i := 0; i+1 < len(extra); i += 2 {
		if l != "" {
			l += ","
		}
		l += fmt.Sprintf("%s=%q", extra[i], extra[i+1])
	}
	if l == "" {
		return ""
	}
	return "{" + l + "}"
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name. A nil
// Registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case KindCounter, KindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.Name, labeled(r.labels), m.Value); err != nil {
				return err
			}
		case KindHistogram:
			for _, b := range m.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.Name, labeled(r.labels, "le", formatFloat(b.Upper)), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				m.Name, labeled(r.labels), formatFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				m.Name, labeled(r.labels), m.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
