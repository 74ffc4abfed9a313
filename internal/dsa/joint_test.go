package dsa_test

// The joint-scoring contract itself (dsa.ScoreSlices is per-measure
// ScoreSlice, bit for bit) is a conformance law; this file pins that
// delivery's joint scorer, which shares runs between measures, left every
// value where it was.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
)

// TestDeliveryJointKeepsValues pins that sharing runs changed no
// delivery value: no score-version bump (cached scores stay valid), and
// the full space scored jointly renders the CSV whose digest bench/
// committed before the capability existed.
func TestDeliveryJointKeepsValues(t *testing.T) {
	d := delivery.Domain()
	if v, ok := d.(dsa.ScoreVersioned); ok && v.ScoreVersion() != 0 {
		t.Fatalf("delivery score version = %d, want 0", v.ScoreVersion())
	}
	if _, ok := d.(dsa.JointScorer); !ok {
		t.Fatal("delivery lost its JointScorer")
	}
	// bench's delivery sweep: the quick preset over the whole space, in
	// the order its golden seed (1) shuffles the points into.
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	pts := append([]core.Point(nil), d.Space().Enumerate()...)
	rand.New(rand.NewSource(1)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	vecs, err := dsa.ScoreSlices(d, d.Measures(), pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string][]float64{}
	for k, m := range d.Measures() {
		raw[m] = vecs[k]
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dsa.WriteCSV(&csv, d, scores); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../bench/golden/delivery-grid-durable.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv.Bytes())
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("jointly scored delivery CSV digest %s, bench golden %s", got, want)
	}
}
