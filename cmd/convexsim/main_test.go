package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestScenarioGolden replays every committed scenario through the full CLI
// path — scenario file in, markdown table out — and diffs against the
// checked-in output. The corpus is the regression net for the run-spec
// layer: any change to trace building, policy resolution, cost parsing or
// the planner that shifts a single count shows up as a golden diff.
func TestScenarioGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario corpus files")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-scenario", path}, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			golden := strings.TrimSuffix(path, ".json") + ".golden"
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output drifted from %s:\n got:\n%s\n want:\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestClassicFlagsMatchScenario asserts the flag path is just scenario
// assembly: the same run through -trace flags and through a -scenario file
// must print byte-identical tables.
func TestClassicFlagsMatchScenario(t *testing.T) {
	var flags, scenario bytes.Buffer
	if err := run([]string{
		"-trace", filepath.Join("testdata", "small.trace"),
		"-k", "4", "-policy", "alg,fifo", "-flush",
		"-cost", "monomial:1,2", "-cost", "linear:0.5",
	}, &flags); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", filepath.Join("testdata", "file-flush.json")}, &scenario); err != nil {
		t.Fatal(err)
	}
	// The flag path defaults seed=1 while the scenario leaves it 0; neither
	// policy here is randomized, so the outputs must match exactly.
	if flags.String() != scenario.String() {
		t.Fatalf("flag path diverges from scenario path:\n flags:\n%s\n scenario:\n%s", &flags, &scenario)
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"k": 4, "polcies": ["alg"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-scenario", bad}, &buf); err == nil {
		t.Fatal("typo'd field accepted")
	}
	if err := run([]string{}, &buf); err == nil {
		t.Fatal("missing -trace/-scenario accepted")
	}
	// The dense engine emits no per-step events, so pinning it under an
	// observer is a spec mistake, refused before any run.
	dense := filepath.Join(dir, "dense-observed.json")
	spec := `{"trace": {"inline": [[0, 1], [0, 2], [0, 1]]}, "k": 2, "engine": "dense", "observers": {"window": 2}}`
	if err := os.WriteFile(dense, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", dense}, &buf)
	if err == nil || !strings.Contains(err.Error(), "dense engine and observers are mutually exclusive") {
		t.Fatalf("dense engine with an observer: got %v", err)
	}
}
