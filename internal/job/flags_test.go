package job_test

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
)

func parseSweepFlags(t *testing.T, args ...string) *job.SweepFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := job.RegisterSweepFlags(fs, gossip.DomainName)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSweepFlagsSpec pins the one mapping from the sweep-shaping flags
// to a spec: no flags is the default domain's quick preset over its
// whole space, an override replaces exactly its knob, and -opponents 0
// (full round-robin) is an override while the other zeros are not.
func TestSweepFlagsSpec(t *testing.T) {
	d := gossip.Domain()
	quick, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseSweepFlags(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Domain.Name() != d.Name() || spec.Cfg != quick || spec.Chunk != 0 || len(spec.Points) != d.Space().Size() {
		t.Errorf("default spec = %s %+v chunk %d, %d points", spec.Domain.Name(), spec.Cfg, spec.Chunk, len(spec.Points))
	}

	spec, err = parseSweepFlags(t, "-preset", "paper", "-stride", "7", "-opponents", "0", "-peers", "9", "-rounds", "0",
		"-perfruns", "4", "-encruns", "3", "-seed", "42", "-chunk", "5").Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := d.DefaultConfig("paper")
	want.Opponents, want.Peers, want.PerfRuns, want.EncounterRuns, want.Seed = 0, 9, 4, 3, 42
	if spec.Cfg != want || spec.Chunk != 5 || !reflect.DeepEqual(spec.Points, dsa.StridePoints(d, 7)) {
		t.Errorf("overridden spec = %+v chunk %d, %d points; want %+v", spec.Cfg, spec.Chunk, len(spec.Points), want)
	}

	for args, wantErr := range map[string]string{
		"-stride 0":        "stride must be >= 1",
		"-stride -4":       "stride must be >= 1",
		"-chunk -1":        "chunk must be >= 0 (0 = default), got -1",
		"-domain nosuch":   `unknown domain "nosuch"`,
		"-preset gigantic": `unknown preset "gigantic"`,
	} {
		_, err := parseSweepFlags(t, strings.Fields(args)...).Spec()
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", args, err, wantErr)
		}
	}
}
