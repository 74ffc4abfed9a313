package pra_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pra"
)

// TestSwarmingIDsGolden pins the swarming domain's point IDs: every
// checkpoint spec, CSV id column, cache key, task seed and opponent panel
// is written in them, so a change to how the space is enumerated or
// decoded must show up here first. The digest covers all 3 270
// (ID, protocol code) pairs reached through PointByID and PointID; the
// panel is the Quick preset's opponents, as IDs, in order.
func TestSwarmingIDsGolden(t *testing.T) {
	const (
		wantSize   = 3270
		wantDigest = "a7aeb6b02c538262680734573e5d7cd7d6aa4b3e098bd23ad19578415b81888b"
	)
	wantPanel := []int{
		365, 419, 474, 528, 583, 637, 692, 746, 801, 855, 910, 964, 1019, 1073, 1128,
		1182, 1237, 1291, 1346, 1400, 1455, 1509, 1564, 1618, 1673, 1727, 1782, 1836, 1891, 1945,
		2000, 2054, 2109, 2163, 2218, 2272, 2327, 2381, 2436, 2490, 2545, 2599, 2654, 2708, 2763,
		2817, 2872, 2926, 2981, 3035, 3090, 3144, 3199, 3253, 38, 92, 147, 201, 256, 310,
	}

	d := pra.Domain()
	if got := d.Space().Size(); got != wantSize {
		t.Fatalf("space size = %d, want %d", got, wantSize)
	}
	h := sha256.New()
	for id := 0; id < wantSize; id++ {
		p, err := d.PointByID(id)
		if err != nil {
			t.Fatalf("PointByID(%d): %v", id, err)
		}
		back, err := d.PointID(p)
		if err != nil || back != id {
			t.Fatalf("PointID(PointByID(%d)) = %d, %v", id, back, err)
		}
		fmt.Fprintf(h, "%d %s\n", id, d.Label(p))
	}
	for _, id := range []int{-1, wantSize} {
		if _, err := d.PointByID(id); err == nil {
			t.Errorf("PointByID(%d) accepted an ID outside the space", id)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("(ID, protocol) digest = %s, want %s", got, wantDigest)
	}

	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	var panel []int
	for _, p := range d.SampleOpponents(cfg) {
		id, err := d.PointID(p)
		if err != nil {
			t.Fatal(err)
		}
		panel = append(panel, id)
	}
	if !slices.Equal(panel, wantPanel) {
		t.Errorf("quick opponent panel IDs = %#v, want %#v", panel, wantPanel)
	}
}
