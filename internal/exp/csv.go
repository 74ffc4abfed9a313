package exp

import (
	"io"

	"repro/internal/dsa"
)

// WriteDomainCSV is dsa.WriteCSV, which writes every domain's canonical
// layout (the swarming columns are pra's dsa.CSVLayout); the name is kept
// for the perf ledger, which calls it.
func WriteDomainCSV(w io.Writer, d dsa.Domain, s *dsa.Scores) error { return dsa.WriteCSV(w, d, s) }
