package game

import (
	"math/rand"
	"testing"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// trembling flips its inner strategy's move with probability p: a mixed
// strategy built from a pure one.
type trembling struct {
	inner Strategy
	p     float64
}

func (s trembling) Name() string { return s.inner.Name() + "+noise" }
func (s trembling) Reset()       { s.inner.Reset() }
func (s trembling) Move(own, opp []Action, rng *rand.Rand) Action {
	a := s.inner.Move(own, opp, rng)
	if rng.Float64() < s.p {
		return 1 - a
	}
	return a
}

func TestMutualTFTDegradesUnderNoise(t *testing.T) {
	// Two TFTs with noise fall into defection vendettas: their mutual
	// score must drop well below the noise-free 3-per-round.
	g := StandardPD()
	clean := PlayMatch(g, TFT{}, TFT{}, 500, rng(2))
	noisy := PlayMatch(g, trembling{TFT{}, 0.05}, trembling{TFT{}, 0.05}, 500, rng(2))
	if noisy.RowScore >= clean.RowScore {
		t.Errorf("noisy TFT score %v should fall below clean %v", noisy.RowScore, clean.RowScore)
	}
}

func TestTFTMirrors(t *testing.T) {
	var s TFT
	if got := s.Move(nil, nil, rng(1)); got != Cooperate {
		t.Error("TFT must open with C")
	}
	if got := s.Move([]Action{Cooperate}, []Action{Defect}, rng(1)); got != Defect {
		t.Error("TFT must mirror a defection")
	}
	if got := s.Move([]Action{Defect}, []Action{Cooperate}, rng(1)); got != Cooperate {
		t.Error("TFT must forgive after cooperation")
	}
}

func TestPlayMatchTFTvsAllD(t *testing.T) {
	// TFT vs AllD over the 5/3/1/0 PD: TFT loses only the first round.
	g := StandardPD()
	res := PlayMatch(g, TFT{}, AllD{}, 10, rng(1))
	// Round 1: TFT C (0), AllD D (5). Rounds 2-10: both D (1,1).
	if res.RowScore != 0+9*1 {
		t.Errorf("TFT score = %v, want 9", res.RowScore)
	}
	if res.ColScore != 5+9*1 {
		t.Errorf("AllD score = %v, want 14", res.ColScore)
	}
	if len(res.Moves[0]) != 10 || len(res.Moves[1]) != 10 {
		t.Error("history length wrong")
	}
}

func TestPlayMatchMutualTFT(t *testing.T) {
	g := StandardPD()
	res := PlayMatch(g, TFT{}, TFT{}, 100, rng(1))
	if res.RowScore != 300 || res.ColScore != 300 {
		t.Errorf("mutual TFT = %v/%v, want 300/300", res.RowScore, res.ColScore)
	}
}

func TestPlayMatchDeterministic(t *testing.T) {
	g := StandardPD()
	a := PlayMatch(g, trembling{AllC{}, 0.5}, TFT{}, 50, rng(7))
	b := PlayMatch(g, trembling{AllC{}, 0.5}, TFT{}, 50, rng(7))
	if a.RowScore != b.RowScore || a.ColScore != b.ColScore {
		t.Error("same seed must give same match")
	}
}

func TestIteratedBitTorrentDilemma(t *testing.T) {
	// In the iterated BT Dilemma (fast row, slow col), a fast AllD
	// against a slow AllC accumulates s per round — the "free rides"
	// the paper describes.
	g, err := BitTorrentDilemma(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := PlayMatch(g, AllD{}, AllC{}, 10, rng(1))
	if res.RowScore != 200 {
		t.Errorf("fast AllD score = %v, want 200", res.RowScore)
	}
	if res.ColScore != 0 {
		t.Errorf("slow AllC score = %v, want 0", res.ColScore)
	}
}

func TestStrategyNames(t *testing.T) {
	all := []Strategy{AllC{}, AllD{}, TFT{}}
	seen := map[string]bool{}
	for _, s := range all {
		n := s.Name()
		if n == "" || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
}
