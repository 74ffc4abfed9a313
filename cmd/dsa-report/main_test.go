package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pra"
)

// TestUnknownDomainErrorListsRegistered pins the report CLI's failure
// mode for a bad -domain value: dsa.Get's error must name the bad
// value and every domain this binary's blank imports register, so a
// typo surfaces the valid options instead of an opaque failure.
func TestUnknownDomainErrorListsRegistered(t *testing.T) {
	_, err := dsa.Get("no-such-domain")
	if err == nil {
		t.Fatal("unknown domain accepted")
	}
	for _, want := range []string{`"no-such-domain"`, "delivery", "gossip", "swarming"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// golden compares a report's text with testdata/<name>.txt, which holds
// the output of the binaries built at the commit before the typed
// swarming layer was folded into the generic one.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata/%s.txt:\n%s", name, name, got)
	}
}

// TestSwarmingReportsGolden re-renders every CSV-backed paper report
// over testdata/swarming.csv (dsa-sweep -stride 100 -opponents 8 -peers
// 16 -rounds 60 -perfruns 1 -encruns 1) through the same path the CLI
// takes, and the merge of those scores back into the CSV itself.
func TestSwarmingReportsGolden(t *testing.T) {
	in := filepath.Join("testdata", "swarming.csv")
	for _, what := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3", "top"} {
		var buf bytes.Buffer
		if err := runScores(&buf, what, pra.DomainName, in, "", "", "", ""); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		golden(t, what, buf.Bytes())
	}
	if err := runScores(&bytes.Buffer{}, "fig11", pra.DomainName, in, "", "", "", ""); err == nil {
		t.Error("unknown report rendered")
	}

	s, err := loadScores(pra.Domain(), in, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged.csv")
	if err := merge(pra.Domain(), s, in, out); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(out)
	want, _ := os.ReadFile(in)
	if !bytes.Equal(got, want) {
		t.Error("merge of the loaded scores is not the CSV they were read from")
	}
}

// TestSweepFreeReportsGolden drives the two folded commands (nash,
// swarm-bench) as subcommands with their own flags, at tiny scale.
func TestSweepFreeReportsGolden(t *testing.T) {
	tiny := []string{"-leechers", "8", "-runs", "1"}
	cases := []struct {
		golden string
		run    func(*bytes.Buffer) error
	}{
		{"nash", func(b *bytes.Buffer) error { return runNash(b, nil) }},
		{"nash_na10_s30", func(b *bytes.Buffer) error { return runNash(b, []string{"-na", "10", "-s", "30"}) }},
		{"fig9a", func(b *bytes.Buffer) error { return runSwarm(b, "fig9a", tiny) }},
		{"fig9b", func(b *bytes.Buffer) error { return runSwarm(b, "fig9b", append(tiny, "-seed", "3")) }},
		{"fig9c", func(b *bytes.Buffer) error { return runSwarm(b, "fig9c", tiny) }},
		{"fig9", func(b *bytes.Buffer) error { return runSwarm(b, "fig9", tiny) }},
		{"fig10", func(b *bytes.Buffer) error { return runSwarm(b, "fig10", []string{"-leechers", "8", "-runs", "2"}) }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(&buf); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		golden(t, c.golden, buf.Bytes())
	}
	if err := runSwarm(&bytes.Buffer{}, "fig9z", tiny); err == nil {
		t.Error("unknown experiment rendered")
	}
}

// TestSimBackedRejectsStrideBelowOne: validate and churn used to hang
// on -stride 0 (a stride loop that never advanced); they refuse it with
// the one-line error dsa-sweep and dsa-grid serve give, before any
// simulation.
func TestSimBackedRejectsStrideBelowOne(t *testing.T) {
	for _, stride := range []int{0, -2} {
		for _, what := range []string{"validate", "churn", "fidelity"} {
			flags := &job.SweepFlags{Domain: pra.DomainName, Preset: "quick", Stride: stride, Seed: 1, Opponents: -1}
			var buf bytes.Buffer
			err := runSimBacked(&buf, what, flags)
			if err == nil || err.Error() != "stride must be >= 1" || buf.Len() != 0 {
				t.Errorf("%s -stride %d: err = %v, output %q", what, stride, err, buf.String())
			}
		}
	}
}

// TestRenderTraceUploadsWithoutTaskCount: a digest with uploads but no
// tasks carried — served by a coordinator that predates the count —
// renders without the per-task upload time instead of dividing by zero.
func TestRenderTraceUploadsWithoutTaskCount(t *testing.T) {
	var buf bytes.Buffer
	if err := renderTrace(&buf, &obs.Analysis{Uploads: 1, UploadTime: time.Second}, 1); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "result uploads (requests)") || strings.Contains(out, "per task") {
		t.Errorf("report:\n%s", out)
	}
}
