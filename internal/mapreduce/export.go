package mapreduce

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
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
	job := promEscape(m.Job)
	pw := &promWriter{w: w, job: job}

	pw.counter("strata_map_tasks_total", "Map tasks run.", float64(m.MapTasks))
	pw.counter("strata_reduce_tasks_total", "Reduce tasks run.", float64(m.ReduceTasks))
	pw.counter("strata_map_attempts_total", "Map task attempts, fault re-executions included.", float64(m.MapAttempts))
	pw.counter("strata_reduce_attempts_total", "Reduce task attempts, fault re-executions included.", float64(m.ReduceAttempts))
	pw.counter("strata_map_input_records_total", "Records read by the map phase.", float64(m.MapInputRecords))
	pw.counter("strata_map_output_records_total", "Pairs emitted by mappers.", float64(m.MapOutputRecords))
	pw.counter("strata_combine_input_records_total", "Pairs fed to combiners.", float64(m.CombineInputRecs))
	pw.counter("strata_combine_output_records_total", "Pairs emitted by combiners.", float64(m.CombineOutputRecs))
	pw.counter("strata_shuffle_records_total", "Pairs moved by the shuffle.", float64(m.ShuffleRecords))
	pw.counter("strata_shuffle_bytes_total", "Shuffle volume in bytes.", float64(m.ShuffleBytes))
	pw.counter("strata_reduce_input_groups_total", "Distinct keys reduced.", float64(m.ReduceInputGroups))
	pw.counter("strata_reduce_input_records_total", "Values fed to reducers.", float64(m.ReduceInputRecs))
	pw.counter("strata_output_records_total", "Final output records.", float64(m.OutputRecords))

	pw.gauge("strata_simulated_map_seconds", "Virtual-clock map makespan.", m.SimulatedMap.Seconds())
	pw.gauge("strata_simulated_shuffle_seconds", "Virtual-clock shuffle transfer time.", m.SimulatedShuffle.Seconds())
	pw.gauge("strata_simulated_reduce_seconds", "Virtual-clock reduce makespan.", m.SimulatedReduce.Seconds())
	pw.gauge("strata_wall_seconds", "Measured in-process run time.", m.WallTime.Seconds())

	pw.histogram("strata_map_task_duration_nanoseconds", "Simulated per-map-task durations.", m.MapTaskNanos, "")
	pw.histogram("strata_reduce_task_duration_nanoseconds", "Simulated per-reduce-task durations.", m.ReduceTaskNanos, "")
	pw.histogram("strata_shuffle_bucket_bytes", "Per (map task, reducer) shuffle bucket sizes.", m.BucketBytes, "")

	for _, name := range sortedKeys(m.Custom) {
		pw.histogram("strata_"+promName(name), "User-observed histogram "+name+".", *m.Custom[name], "")
	}
	if len(m.PerKey) > 0 {
		pw.help("strata_key_reduce_records_total", "Values reduced under one key (stratum).")
		pw.typ("strata_key_reduce_records_total", "counter")
		for _, key := range sortedKeys(m.PerKey) {
			pw.line("strata_key_reduce_records_total", `key="`+promEscape(key)+`"`, float64(m.PerKey[key].Records))
		}
		pw.help("strata_key_output_records_total", "Records emitted for one key (stratum).")
		pw.typ("strata_key_output_records_total", "counter")
		for _, key := range sortedKeys(m.PerKey) {
			pw.line("strata_key_output_records_total", `key="`+promEscape(key)+`"`, float64(m.PerKey[key].Output))
		}
	}
	return pw.err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promWriter accumulates exposition lines, remembering the first write error.
type promWriter struct {
	w   io.Writer
	job string
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) help(name, help string) { p.printf("# HELP %s %s\n", name, help) }
func (p *promWriter) typ(name, t string)     { p.printf("# TYPE %s %s\n", name, t) }

func (p *promWriter) line(name, extraLabels string, v float64) {
	labels := `job="` + p.job + `"`
	if extraLabels != "" {
		labels += "," + extraLabels
	}
	p.printf("%s{%s} %g\n", name, labels, v)
}

func (p *promWriter) counter(name, help string, v float64) {
	p.help(name, help)
	p.typ(name, "counter")
	p.line(name, "", v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.help(name, help)
	p.typ(name, "gauge")
	p.line(name, "", v)
}

func (p *promWriter) histogram(name, help string, h Histogram, extraLabels string) {
	p.help(name, help)
	p.typ(name, "histogram")
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		le := fmt.Sprintf(`le="%d"`, b.Le)
		if extraLabels != "" {
			le = extraLabels + "," + le
		}
		p.line(name+"_bucket", le, float64(cum))
	}
	inf := `le="+Inf"`
	if extraLabels != "" {
		inf = extraLabels + "," + inf
	}
	p.line(name+"_bucket", inf, float64(h.Count()))
	p.line(name+"_sum", extraLabels, float64(h.Sum()))
	p.line(name+"_count", extraLabels, float64(h.Count()))
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

// promEscape escapes a label value: the format's three escapes, plus a
// hex rendering (\xNN, with the backslash itself escaped) for control bytes —
// compact binary shuffle keys like cps's Selection.Key must not leak raw
// bytes into a text exposition.
func promEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b.WriteString(`\\`)
		case c == '"':
			b.WriteString(`\"`)
		case c == '\n':
			b.WriteString(`\n`)
		case c < 0x20 || c == 0x7f:
			fmt.Fprintf(&b, `\\x%02x`, c)
		default:
			b.WriteByte(c)
		}
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
