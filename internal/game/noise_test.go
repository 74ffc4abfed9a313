package game

import (
	"math/rand"
	"strings"
	"testing"
)

func TestNoisyFlipsAtFullNoise(t *testing.T) {
	n := Noisy{Inner: AllC{}, P: 1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if n.Move(nil, nil, r) != Defect {
			t.Fatal("P=1 noise must always flip")
		}
	}
	quiet := Noisy{Inner: AllC{}, P: 0}
	for i := 0; i < 20; i++ {
		if quiet.Move(nil, nil, r) != Cooperate {
			t.Fatal("P=0 noise must never flip")
		}
	}
}

func TestNoisyNameAndReset(t *testing.T) {
	g := &Grim{}
	n := Noisy{Inner: g, P: 0.1}
	if !strings.HasSuffix(n.Name(), "+noise") {
		t.Errorf("name = %q", n.Name())
	}
	g.triggered = true
	n.Reset()
	if g.triggered {
		t.Error("Reset must reach the inner strategy")
	}
}

func TestMutualTFTDegradesUnderNoise(t *testing.T) {
	// Two TFTs with noise fall into defection vendettas: their mutual
	// score must drop well below the noise-free 3-per-round.
	g := StandardPD()
	clean := PlayMatch(g, TFT{}, TFT{}, 500, rand.New(rand.NewSource(2)))
	noisy := PlayMatch(g,
		Noisy{Inner: TFT{}, P: 0.05},
		Noisy{Inner: TFT{}, P: 0.05},
		500, rand.New(rand.NewSource(2)))
	if noisy.RowScore >= clean.RowScore {
		t.Errorf("noisy TFT score %v should fall below clean %v", noisy.RowScore, clean.RowScore)
	}
}

func TestWSLSRecoversBetterThanGrimUnderNoise(t *testing.T) {
	// Pavlov self-corrects after an accidental defection; Grim never
	// does. In self-play under noise WSLS must out-score Grim.
	g := StandardPD()
	wsls := PlayMatch(g,
		Noisy{Inner: WSLS{}, P: 0.05},
		Noisy{Inner: WSLS{}, P: 0.05},
		1000, rand.New(rand.NewSource(3)))
	grim := PlayMatch(g,
		Noisy{Inner: &Grim{}, P: 0.05},
		Noisy{Inner: &Grim{}, P: 0.05},
		1000, rand.New(rand.NewSource(3)))
	if wsls.RowScore+wsls.ColScore <= grim.RowScore+grim.ColScore {
		t.Errorf("WSLS self-play %v should beat Grim self-play %v under noise",
			wsls.RowScore+wsls.ColScore, grim.RowScore+grim.ColScore)
	}
}
