package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/report"
)

// fidelityPath is the ledger fidelity writes in the working directory,
// and the committed ledger it checks a fresh one against first.
const fidelityPath = "FIDELITY.json"

// runFidelity measures the paper's claims at sc, checks them against
// the ledger already at fidelityPath (if any), writes the fresh one
// there and renders it. It fails when a row left its tolerance around
// the committed interval or stopped holding: a deliberate change
// commits the rewritten file.
func runFidelity(w io.Writer, sc exp.LedgerScale) error {
	led, err := exp.Fidelity(sc)
	if err != nil {
		return err
	}
	var fails []string
	switch buf, err := os.ReadFile(fidelityPath); {
	case err == nil:
		var committed exp.Ledger
		if err := json.Unmarshal(buf, &committed); err != nil {
			return fmt.Errorf("%s: %w", fidelityPath, err)
		}
		var n int
		n, fails = led.Check(&committed)
		fmt.Fprintf(w, "checked %d of %d rows against the existing %s (rows at another scale or seed set are not compared)\n", n, len(committed.Rows), fidelityPath)
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the claim table's "r > 0.9" stays readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(led); err != nil {
		return err
	}
	if err := os.WriteFile(fidelityPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	tbl := report.NewTable("claim", "paper", "tolerance", "interval", "holds", "cpu_s")
	for _, r := range led.Rows {
		tbl.Add(r.Name, r.Paper, r.Tolerance, fmt.Sprintf("%.3f-%.3f", r.Interval[0], r.Interval[1]), r.Holds, fmt.Sprintf("%.1f", r.CPUSec))
	}
	fmt.Fprintf(w, "Fidelity ledger over %d seeds (%.1f cpu-s), written to %s:\n", len(led.Seeds), led.CPUSec, fidelityPath)
	if err := tbl.Render(w); err != nil {
		return err
	}
	if len(fails) > 0 {
		return fmt.Errorf("fidelity: the ledger moved beyond the committed %s (commit the rewritten file if the change is deliberate):\n  %s",
			fidelityPath, strings.Join(fails, "\n  "))
	}
	return nil
}
