package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ordered"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (one counter family per registered name, values as totals):
//
//	# TYPE nestsim_nest_expand_total counter
//	nestsim_nest_expand_total{sched="nest",workload="configure"} 42
//
// labels are attached to every sample (sorted by key); pass nil for
// none. Dots and other non-metric characters in counter names become
// underscores, prefixed "nestsim_" and suffixed "_total". Sanitisation
// can collide ("a.b" and "a_b" both become "nestsim_a_b_total"); the
// first name in sorted order keeps the plain metric name and later
// colliders get a deterministic ordinal inserted before the suffix
// ("nestsim_a_b_2_total"), so no counter is silently dropped and the
// mapping is stable across runs.
func WritePrometheus(w io.Writer, cs *Counters, labels map[string]string) error {
	if cs == nil {
		return nil
	}
	lstr := promLabels(labels)
	used := make(map[string]int)
	for _, name := range cs.Names() {
		base := promBase(name)
		used[base]++
		metric := base + "_total"
		if n := used[base]; n > 1 {
			metric = fmt.Sprintf("%s_%d_total", base, n)
		}
		if _, err := fmt.Fprintf(w, "# HELP %s nest-sim counter %q\n# TYPE %s counter\n%s%s %d\n",
			metric, name, metric, metric, lstr, cs.Value(name)); err != nil {
			return err
		}
	}
	return nil
}

// promBase sanitises a dotted counter name into a Prometheus metric name
// stem (no "_total" suffix; WritePrometheus appends it after collision
// disambiguation).
func promBase(name string) string {
	var b strings.Builder
	b.WriteString("nestsim_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a sorted {k="v",...} label block ("" when empty).
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range ordered.Keys(labels) {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escaping matches the exposition format (\" \\ \n).
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
