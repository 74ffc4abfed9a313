package design

// Named protocols referenced throughout the paper. The exact
// non-headline dimensions (h, k) follow BitTorrent's defaults where the
// paper does not pin them: one optimistic unchoke slot and four regular
// unchoke slots.

// BitTorrent is the reference protocol: periodic optimistic unchoke,
// TFT candidates, fastest-first ranking, equal split.
func BitTorrent() Protocol {
	return Protocol{Stranger: Periodic, H: 1, Candidate: TFT, Ranking: Fastest, K: 4, Allocation: EqualSplit}
}

// Birds is Section 2.3's protocol: BitTorrent with the ranking replaced
// by proximity to one's own upload capacity ("the best Birds variant,
// i.e. a protocol that at the very least ranks others by Proximity and
// employs Equal Split", Section 4.4.2).
func Birds() Protocol {
	p := BitTorrent()
	p.Ranking = Proximity
	return p
}

// LoyalWhenNeeded is the protocol validated in Section 5: Sort Loyal
// ranking with the When-needed stranger policy, which DSA found to have
// both high Performance and high Robustness.
func LoyalWhenNeeded() Protocol {
	return Protocol{Stranger: WhenNeeded, H: 2, Candidate: TFT, Ranking: Loyal, K: 4, Allocation: EqualSplit}
}

// SortS is the counter-intuitive top performer of Section 4.4: defect
// on strangers, rank slowest first, keep a single partner, equal split
// (Prop Share would fail to bootstrap).
func SortS() Protocol {
	return Protocol{Stranger: DefectStrangers, H: 1, Candidate: TFT, Ranking: Slowest, K: 1, Allocation: EqualSplit}
}

// SortRandom is BitTorrent with random ranking, the Figure 10 baseline
// that performs on par with BitTorrent (cf. Leong et al. [15]).
func SortRandom() Protocol {
	p := BitTorrent()
	p.Ranking = RandomRank
	return p
}

// MostRobustCandidate is the combination Section 4.4 identifies in the
// >0.99-robustness cluster: When-needed strangers, Sort Fastest,
// Prop Share, seven partners.
func MostRobustCandidate() Protocol {
	return Protocol{Stranger: WhenNeeded, H: 3, Candidate: TFT, Ranking: Fastest, K: 7, Allocation: PropShare}
}

// Freerider is the canonical low point of the space: no cooperation
// with anybody.
func Freerider() Protocol {
	return Protocol{Stranger: StrangerNone, H: 0, Candidate: TFT, Ranking: Fastest, K: 0, Allocation: Freeride}
}

// Named returns the paper's named protocols keyed by their names, for
// tooling and reports.
func Named() map[string]Protocol {
	return map[string]Protocol{
		"BitTorrent":      BitTorrent(),
		"Birds":           Birds(),
		"LoyalWhenNeeded": LoyalWhenNeeded(),
		"SortS":           SortS(),
		"SortRandom":      SortRandom(),
		"MostRobust":      MostRobustCandidate(),
		"Freerider":       Freerider(),
	}
}
