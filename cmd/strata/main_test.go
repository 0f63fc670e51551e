package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/predicate"
	"repro/internal/query"
)

func TestCmdGenerate(t *testing.T) {
	if err := cmdGenerate([]string{"-n", "500", "-stats=true"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"-n", "300", "-uniform"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"-n", "300", "-graph"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSample(t *testing.T) {
	err := cmdSample([]string{"-n", "2000", "-query", "nop >= 30 : 3 ; nop < 30 : 5", "-print=false"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-n", "100", "-query", "broken ::"}); err == nil {
		t.Fatal("want parse error")
	}
	if err := cmdSample([]string{"-n", "100", "-query", "nop < 10 : 1 ; nop < 20 : 1"}); err == nil {
		t.Fatal("want overlap validation error")
	}
	// Nine boxes on four attributes, no bound shared: 19⁴ cells, past the cap.
	var wide []string
	for k := 0; k < 9; k++ {
		wide = append(wide, fmt.Sprintf("nop >= %d and nop <= %d and cc >= %d and cc <= %d and ndcc >= %d and ndcc <= %d and myp >= %d and myp <= %d : 1",
			10+70*k, 40+70*k, 10+100*k, 60+100*k, 10+200*k, 110+200*k, 2+15*k, 10+15*k))
	}
	err = cmdSample([]string{"-n", "100", "-query", strings.Join(wide, " ; ")})
	if err == nil || !strings.Contains(err.Error(), "130321 cells") {
		t.Fatalf("past the cell cap: error %v, want the cell count", err)
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return <-out
}

// TestCmdSampleGolden: `strata sample`, sampling inside the map tasks
// (Figure 2) and forwarding every match (-naive, Figure 1), prints the bytes
// the binary printed before the split-level stage became the engine's only
// map interface — the answers and the metrics line with its simulated time.
// The golden files were captured from that binary; regenerate them only with
// a change that means to move draws or the cost model.
func TestCmdSampleGolden(t *testing.T) {
	args := []string{"-n", "20000", "-seed", "7", "-slaves", "8", "-splits", "16", "-layout", "skewed",
		"-query", "nop >= 100 : 5 ; nop < 100 and fy < 2000 : 10 ; nop < 100 and fy >= 2000 : 4"}
	for golden, extra := range map[string][]string{
		"sample_fused.golden": nil,
		"sample_naive.golden": {"-naive"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() error { return cmdSample(append(args[:len(args):len(args)], extra...)) })
		if got != string(want) {
			t.Errorf("%s: output moved\n--- got\n%s--- want\n%s", golden, got, want)
		}
	}
}

func TestCmdAudit(t *testing.T) {
	err := cmdAudit([]string{"-n", "2000", "-query", "nop >= 30 : 3 ; nop < 30 : 5",
		"-runs", "5", "-slaves", "2", "-estimate", "nop"})
	if err != nil {
		t.Fatal(err)
	}
	// The report must have been published for /quality.
	globalObs.mu.Lock()
	rep := globalObs.quality
	custom := globalObs.metrics.Custom
	globalObs.mu.Unlock()
	if rep == nil || rep.Fill == nil || rep.Bias == nil || rep.Estimator == nil {
		t.Fatalf("published quality report incomplete: %+v", rep)
	}
	if rep.Bias.Runs != 5 {
		t.Fatalf("bias runs = %d", rep.Bias.Runs)
	}
	if custom["audit_fill_permille"] == nil {
		t.Fatal("audit histograms not folded into process metrics")
	}
	if err := cmdAudit([]string{"-n", "100", "-query", "broken ::"}); err == nil {
		t.Fatal("want parse error")
	}
	if err := cmdAudit([]string{"-n", "500", "-cps", "-group", "Nope", "-runs", "2", "-slaves", "2"}); err == nil {
		t.Fatal("want unknown-group error")
	}
}

func TestCmdAuditCPS(t *testing.T) {
	err := cmdAudit([]string{"-n", "2500", "-query", "nop >= 30 : 3 ; nop < 30 : 5",
		"-runs", "3", "-slaves", "2", "-cps", "-group", "Small", "-sample", "24", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	globalObs.mu.Lock()
	rep := globalObs.quality
	globalObs.mu.Unlock()
	if rep == nil || rep.CPS == nil {
		t.Fatal("CPS section missing from published report")
	}
	if rep.CPS.CostRatio() < 1-1e-9 {
		t.Fatalf("realized cost below LP bound: %v", rep.CPS.CostRatio())
	}
}

func TestCmdMSSD(t *testing.T) {
	err := cmdMSSD([]string{"-n", "3000", "-group", "Small", "-sample", "32", "-runs", "1", "-slaves", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdMSSD([]string{"-group", "Nope"}); err == nil {
		t.Fatal("want unknown-group error")
	}
}

func TestCmdQueryFromFiles(t *testing.T) {
	dir := t.TempDir()

	// Write a design file.
	m := query.NewMSSD(
		query.PenaltyCosts{Interview: 4},
		query.NewSSD("act",
			query.Stratum{Cond: predicate.MustParse("ayp >= 3"), Freq: 4},
			query.Stratum{Cond: predicate.MustParse("ayp < 3"), Freq: 6},
		),
	)
	design, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "design.json")
	if err := os.WriteFile(designPath, design, 0o644); err != nil {
		t.Fatal(err)
	}

	// Write a population CSV.
	pop := gen.Population(800, 9)
	csvPath := filepath.Join(dir, "pop.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := cmdQuery([]string{"-design", designPath, "-data", csvPath, "-slaves", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-design", designPath, "-n", "500", "-slaves", "2", "-ip"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Fatal("want missing-design error")
	}
	if err := cmdQuery([]string{"-design", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("want file error")
	}
}

func TestCmdExperimentsQuick(t *testing.T) {
	err := cmdExperiments([]string{"-run", "table2", "-pop", "3000", "-samples", "24", "-runs", "1", "-slaves", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdExperiments([]string{"-run", "nope"}); err == nil {
		t.Fatal("want unknown-experiment error")
	}
	if err := cmdExperiments([]string{"-samples", "abc"}); err == nil {
		t.Fatal("want bad-samples error")
	}
}

func TestParseSSDSpec(t *testing.T) {
	q, err := parseSSD("Q", "a < 5 : 2 ; a >= 5 : 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Strata) != 2 || q.Strata[0].Freq != 2 || q.Strata[1].Freq != 3 {
		t.Fatalf("parsed %+v", q)
	}
	for _, bad := range []string{"", "a < 5", "a < 5 : x", "(( : 3"} {
		if _, err := parseSSD("Q", bad); err == nil {
			t.Errorf("parseSSD(%q) should fail", bad)
		}
	}
}

func TestCmdQueryCSVExport(t *testing.T) {
	dir := t.TempDir()
	m := query.NewMSSD(
		query.PenaltyCosts{Interview: 4},
		query.NewSSD("act",
			query.Stratum{Cond: predicate.MustParse("ayp >= 3"), Freq: 3},
			query.Stratum{Cond: predicate.MustParse("ayp < 3"), Freq: 4},
		),
	)
	design, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "d.json")
	if err := os.WriteFile(designPath, design, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "answers.csv")
	if err := cmdQuery([]string{"-design", designPath, "-n", "500", "-slaves", "2", "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 { // header + 7 individuals
		t.Fatalf("%d lines in export, want 8", len(lines))
	}
	if !strings.HasPrefix(lines[0], "survey,stratum,id,name,nop") {
		t.Fatalf("bad header %q", lines[0])
	}
}
