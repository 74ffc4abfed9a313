package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/dsa"
)

// TestMain lets a test re-run this binary as dsa-grid: with
// DSA_GRID_RUN_MAIN=1 the arguments go to main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DSA_GRID_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRegisteredDomainsReachGrid: the worker resolves a wire spec's
// domain by name through the registry, so every domain this binary is
// expected to serve must be registered by its blank imports — and an
// unknown -domain on serve must error naming the registered list.
func TestRegisteredDomainsReachGrid(t *testing.T) {
	for _, name := range []string{"delivery", "gossip", "swarming"} {
		if _, err := dsa.Get(name); err != nil {
			t.Fatalf("domain %s not registered in dsa-grid: %v", name, err)
		}
	}
	_, err := dsa.Get("bogus")
	if err == nil {
		t.Fatal("unknown domain accepted")
	}
	for _, want := range []string{`"bogus"`, "delivery", "gossip", "swarming"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// TestRetiredFlagsRefused: a command line written for an older dsa-grid
// that sets a deleted knob is refused with a usage error (status 2) that
// names the flag, never run with the knob silently dropped.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-rate-limit", []string{"serve", "-addr", "127.0.0.1:0", "-rate-limit", "5"}},
		{"-pprof", []string{"serve", "-addr", "127.0.0.1:0", "-pprof"}},
		{"-pprof", []string{"work", "-coordinator", "http://x", "-pprof"}},
		{"-job", []string{"work", "-coordinator", "http://x", "-job", "j"}},
	} {
		// The deadline only matters if the flag were accepted: the
		// command would then run instead of exiting.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "DSA_GRID_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dsa-grid %s: %v, want exit status 2", strings.Join(tc.args, " "), err)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+tc.flag) {
			t.Errorf("dsa-grid %s: stderr does not name %s:\n%s", strings.Join(tc.args, " "), tc.flag, stderr.String())
		}
	}
}
