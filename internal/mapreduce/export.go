package mapreduce

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// MarshalJSONIndent renders the metrics as indented JSON. Histograms use
// their bucket wire form, so the output round-trips through
// encoding/json back into an equal Metrics value.
func (m Metrics) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteJSON writes the metrics as one indented JSON object.
func (m Metrics) WriteJSON(w io.Writer) error {
	data, err := m.MarshalJSONIndent()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (counters, gauges and cumulative-bucket histograms), every series
// labelled with the job name. Map iteration is sorted, so the output is
// deterministic. cmd/strata serves the accumulated metrics of a process in
// this format at --debug-addr's /metrics endpoint.
func (m Metrics) WritePrometheus(w io.Writer) error {
	pw := NewPromWriter(w, "job", m.Job)

	pw.Counter("strata_map_tasks_total", "Map tasks run.", m.MapTasks)
	pw.Counter("strata_reduce_tasks_total", "Reduce tasks run.", m.ReduceTasks)
	pw.Counter("strata_map_attempts_total", "Map task attempts, those that died on a worker included.", m.MapAttempts)
	pw.Counter("strata_reduce_attempts_total", "Reduce task attempts, those that died on a worker included.", m.ReduceAttempts)
	pw.Counter("strata_map_input_records_total", "Records read by the map phase.", m.MapInputRecords)
	pw.Counter("strata_map_output_records_total", "Pairs emitted by mappers.", m.MapOutputRecords)
	pw.Counter("strata_combine_input_records_total", "Pairs fed to combiners.", m.CombineInputRecs)
	pw.Counter("strata_combine_output_records_total", "Pairs emitted by combiners.", m.CombineOutputRecs)
	pw.Counter("strata_shuffle_records_total", "Pairs moved by the shuffle.", m.ShuffleRecords)
	pw.Counter("strata_shuffle_bytes_total", "Shuffle volume in bytes.", m.ShuffleBytes)
	pw.Counter("strata_reduce_input_groups_total", "Distinct keys reduced.", m.ReduceInputGroups)
	pw.Counter("strata_reduce_input_records_total", "Values fed to reducers.", m.ReduceInputRecs)
	pw.Counter("strata_output_records_total", "Final output records.", m.OutputRecords)

	pw.Gauge("strata_simulated_map_seconds", "Virtual-clock map makespan.", m.SimulatedMap.Seconds())
	pw.Gauge("strata_simulated_shuffle_seconds", "Virtual-clock shuffle transfer time.", m.SimulatedShuffle.Seconds())
	pw.Gauge("strata_simulated_reduce_seconds", "Virtual-clock reduce makespan.", m.SimulatedReduce.Seconds())
	pw.Gauge("strata_wall_seconds", "Measured in-process run time.", m.WallTime.Seconds())

	pw.Histogram("strata_map_task_duration_nanoseconds", "Simulated per-map-task durations.", m.MapTaskNanos)
	pw.Histogram("strata_reduce_task_duration_nanoseconds", "Simulated per-reduce-task durations.", m.ReduceTaskNanos)
	pw.Histogram("strata_shuffle_bucket_bytes", "Per (map task, reducer) shuffle bucket sizes.", m.BucketBytes)

	for _, name := range sortedKeys(m.Custom) {
		pw.Histogram("strata_"+promName(name), "User-observed histogram "+name+".", *m.Custom[name])
	}
	if keys := sortedKeys(m.PerKey); len(keys) > 0 {
		pw.Family("strata_key_reduce_records_total", "counter", "Values reduced under one key (stratum).")
		for _, key := range keys {
			pw.Sample("strata_key_reduce_records_total", m.PerKey[key].Records, "key", key)
		}
		pw.Family("strata_key_output_records_total", "counter", "Records emitted for one key (stratum).")
		for _, key := range keys {
			pw.Sample("strata_key_output_records_total", m.PerKey[key].Output, "key", key)
		}
	}
	return pw.Err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PromWriter is the one renderer of the Prometheus text exposition format:
// every /metrics body is written through it (CI fails if another
// non-test file spells "# HELP"). Labels are key, value, … pairs, escaped
// here; a sample value is an integer, printed as one, or a float64, printed %g.
type PromWriter struct {
	w      io.Writer
	consts string // rendered constant labels, on every sample
	// Err is the first write error; once set, later writes are dropped, so a
	// caller renders a whole body and checks once.
	Err error
}

// NewPromWriter returns a writer that puts constLabels on every sample.
func NewPromWriter(w io.Writer, constLabels ...string) *PromWriter {
	return &PromWriter{w: w, consts: labelPairs("", constLabels)}
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.Err == nil {
		_, p.Err = fmt.Fprintf(p.w, format, args...)
	}
}

func labelPairs(rendered string, kv []string) string {
	for i := 0; i+1 < len(kv); i += 2 {
		rendered += "," + kv[i] + `="` + promEscape(kv[i+1]) + `"`
	}
	return strings.TrimPrefix(rendered, ",")
}

// Family opens a metric family: its HELP and TYPE lines, ahead of its samples.
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the open family.
func (p *PromWriter) Sample(name string, v any, labels ...string) {
	if l := labelPairs(p.consts, labels); l != "" {
		name += "{" + l + "}"
	}
	p.printf("%s %v\n", name, v)
}

// Counter and Gauge write a single-sample family.
func (p *PromWriter) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, v)
}

func (p *PromWriter) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, v)
}

// Histogram writes h as a family of cumulative buckets, _sum and _count.
func (p *PromWriter) Histogram(name, help string, h Histogram) {
	p.Family(name, "histogram", help)
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		p.Sample(name+"_bucket", cum, "le", fmt.Sprint(b.Le))
	}
	p.Sample(name+"_bucket", h.Count(), "le", "+Inf")
	p.Sample(name+"_sum", h.Sum())
	p.Sample(name+"_count", h.Count())
}

// BuildInfo writes strata_build_info (Go version, VCS revision when built from
// a checkout) and strata_uptime_seconds. The daemon's /metrics and the CLI's
// -debug-addr end with them, so a scrape says which build produced its numbers.
func (p *PromWriter) BuildInfo(start time.Time) {
	goVersion, vcs := "unknown", map[string]string{"vcs.revision": "", "vcs.modified": "false"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if _, wanted := vcs[kv.Key]; wanted {
				vcs[kv.Key] = kv.Value
			}
		}
	}
	p.Family("strata_build_info", "gauge", "Build metadata; the value is always 1.")
	p.Sample("strata_build_info", 1, "go_version", goVersion, "revision", vcs["vcs.revision"], "modified", vcs["vcs.modified"])
	p.Gauge("strata_uptime_seconds", "Seconds since the process started serving.", float64(time.Since(start).Milliseconds())/1e3)
}

// promName maps an arbitrary histogram name onto the Prometheus metric-name
// alphabet.
func promName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			i > 0 && c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value: the format's three escapes, plus a hex
// rendering (\xNN, with the backslash itself escaped) for control bytes and
// bytes that are not valid UTF-8 — compact binary shuffle keys like cps's
// Selection.Key and client-supplied tenant headers must not leak bytes the
// text parser refuses. Valid UTF-8 beyond ASCII passes through.
func promEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == '"':
			b.WriteString(`\"`)
		case r == '\n':
			b.WriteString(`\n`)
		case r < 0x20 || r == 0x7f || r == utf8.RuneError && size == 1:
			fmt.Fprintf(&b, `\\x%02x`, s[i])
		default:
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// PhaseBreakdown returns the paper-style per-phase simulated time split
// (map, shuffle, reduce) as fractions of SimulatedTotal; all zeros when the
// total is zero.
func (m Metrics) PhaseBreakdown() (mapFrac, shuffleFrac, reduceFrac float64) {
	total := m.SimulatedTotal()
	if total <= 0 {
		return 0, 0, 0
	}
	return float64(m.SimulatedMap) / float64(total),
		float64(m.SimulatedShuffle) / float64(total),
		float64(m.SimulatedReduce) / float64(total)
}
