// Package dataset generates the paper's experimental workloads: the three
// standard preference-query benchmarks (Independent, Correlated,
// Anticorrelated — Börzsönyi et al.) and deterministic surrogates for the
// three real datasets (HOTEL, HOUSE, NBA) that are not redistributable; the
// README's "Paper reproduction" section gives the substitution rationale.
// All generators are seeded and reproducible.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind selects a synthetic distribution.
type Kind int

const (
	// IND draws each attribute independently and uniformly.
	IND Kind = iota
	// COR draws positively correlated attributes (records good in one
	// dimension tend to be good in all).
	COR
	// ANTI draws anticorrelated attributes (records good in one dimension
	// tend to be poor in the others).
	ANTI
)

func (k Kind) String() string {
	switch k {
	case IND:
		return "IND"
	case COR:
		return "COR"
	case ANTI:
		return "ANTI"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a distribution name ("IND", "COR", "ANTI",
// case-sensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "IND":
		return IND, nil
	case "COR":
		return COR, nil
	case "ANTI":
		return ANTI, nil
	}
	return 0, fmt.Errorf("dataset: unknown distribution %q", s)
}

// Synthetic generates n d-dimensional records in [0, 1]^d under the given
// distribution, deterministically for a seed.
func Synthetic(kind Kind, n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		switch kind {
		case COR:
			out[i] = correlated(rng, d)
		case ANTI:
			out[i] = anticorrelated(rng, d)
		default:
			out[i] = independent(rng, d)
		}
	}
	return out
}

func independent(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// correlated follows the classic construction: a base value on the diagonal
// plus small per-dimension perturbations.
func correlated(rng *rand.Rand, d int) []float64 {
	base := clampedNormal(rng, 0.5, 0.25)
	p := make([]float64, d)
	for i := range p {
		p[i] = clamp01(base + rng.NormFloat64()*0.05)
	}
	return p
}

// anticorrelated places records near the hyperplane Σx = d/2 with large
// spread across dimensions: a gain in one attribute is paid for in others.
func anticorrelated(rng *rand.Rand, d int) []float64 {
	for {
		// Sample a direction on the simplex and scale to the target plane.
		raw := make([]float64, d)
		sum := 0.0
		for i := range raw {
			raw[i] = rng.ExpFloat64()
			sum += raw[i]
		}
		level := clampedNormal(rng, 0.5, 0.05) * float64(d)
		ok := true
		p := make([]float64, d)
		for i := range p {
			p[i] = raw[i] / sum * level
			if p[i] > 1 {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

func clampedNormal(rng *rand.Rand, mean, std float64) float64 {
	for {
		v := mean + rng.NormFloat64()*std
		if v >= 0 && v <= 1 {
			return v
		}
	}
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}

// HotelSize, HouseSize, and NBASize are the cardinalities of the paper's
// real datasets; the surrogates default to the same sizes.
const (
	HotelSize = 418843
	HouseSize = 315265
	NBASize   = 21960
)

// Hotel generates the HOTEL surrogate: n 4-dimensional records emulating
// average guest ratings (service, cleanliness, location, value) on a 0–10
// scale. Ratings of one hotel correlate mildly (a well-run hotel scores
// well across the board) with heavier mass near the top, mimicking review
// data.
func Hotel(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		quality := clampedNormal(rng, 0.55, 0.2) // overall hotel quality
		p := make([]float64, 4)
		for j := range p {
			// Logistic squash instead of a hard clamp: a hard ceiling at 10
			// collapses the top of the distribution into near-identical
			// dominating records, which degenerates every top-k set to the
			// same few hotels; the squash keeps the rating tail smooth so the
			// skyband stays diverse like real review data.
			z := 2.5*(quality-0.5) + rng.NormFloat64()*0.6
			p[j] = 10 / (1 + math.Exp(-z))
		}
		out[i] = p
	}
	return out
}

// House generates the HOUSE surrogate: n 6-dimensional records emulating
// household expenditure attributes (the ipums.org extract the paper uses).
// Attributes split into two mildly correlated groups with independent
// heavy-tailed noise, giving a mixed-correlation structure between IND and
// COR.
func House(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		income := clampedNormal(rng, 0.45, 0.22) // drives expense group 1
		thrift := clampedNormal(rng, 0.5, 0.25)  // drives expense group 2
		p := make([]float64, 6)
		for j := 0; j < 3; j++ {
			p[j] = clamp01(income + rng.NormFloat64()*0.15 + 0.1*rng.ExpFloat64()*0.2)
		}
		for j := 3; j < 6; j++ {
			p[j] = clamp01(thrift + rng.NormFloat64()*0.15 + 0.1*rng.ExpFloat64()*0.2)
		}
		out[i] = p
	}
	return out
}

// NBA generates the NBA surrogate: n 8-dimensional records emulating
// per-season player statistics (points, rebounds, assists, steals, blocks
// and three efficiency rates). Player skill follows a heavy-tailed
// distribution (few stars, many role players) and stats correlate strongly
// with skill — the structure that makes the paper's NBA experiments slower
// per record than HOTEL despite the smaller cardinality.
func NBA(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		// Skill in (0,1), heavy right tail.
		skill := math.Pow(rng.Float64(), 2.5)
		skill = 1 - skill // many low, few high
		if rng.Float64() < 0.02 {
			skill = 0.85 + rng.Float64()*0.15 // superstar seasons
		}
		p := make([]float64, 8)
		for j := 0; j < 5; j++ { // counting stats: skill-correlated
			p[j] = clamp01(skill*0.8 + rng.Float64()*0.3)
		}
		for j := 5; j < 8; j++ { // rates: weaker correlation
			p[j] = clamp01(0.3 + skill*0.4 + rng.NormFloat64()*0.15)
		}
		out[i] = p
	}
	return out
}

// Player is a named record for the Figure 9 case studies.
type Player struct {
	Name string
	// Rebounds, Points, Assists are per-game averages for the 2016–2017
	// season (the attributes used by the paper's case studies).
	Rebounds, Points, Assists float64
}

// NBA2017 returns a curated table of prominent 2016–2017 season per-game
// averages used to reproduce the Figure 9 case studies. The numbers are
// approximate public figures; the table is curated to the players the
// paper's case study names plus a supporting cast, and is meant to be
// max-normalized (see Normalize10) before querying — with that scaling the
// paper's qualitative picture emerges: Westbrook/Davis/Whiteside hold the
// top-3 for rebounding weight below ≈ 0.72, Drummond displaces Westbrook
// above it, and in the 3-attribute study the third slot rotates between
// LeBron, Cousins, and Davis next to the fixed Westbrook/Harden pair.
func NBA2017() []Player {
	return []Player{
		{"Russell Westbrook", 10.7, 31.6, 10.4},
		{"James Harden", 8.1, 29.1, 11.2},
		{"Anthony Davis", 11.8, 28.0, 2.1},
		{"DeMarcus Cousins", 11.0, 27.0, 4.6},
		{"Hassan Whiteside", 14.1, 17.0, 0.7},
		{"Andre Drummond", 13.8, 13.6, 1.1},
		{"LeBron James", 8.6, 26.4, 8.7},
		{"Giannis Antetokounmpo", 8.8, 22.9, 5.4},
		{"Rudy Gobert", 12.8, 14.0, 1.2},
		{"Isaiah Thomas", 2.7, 28.9, 5.9},
		{"Kevin Durant", 8.3, 25.1, 4.8},
		{"Stephen Curry", 4.5, 25.3, 6.6},
		{"Kawhi Leonard", 5.8, 25.5, 3.5},
		{"Damian Lillard", 4.9, 27.0, 5.9},
		{"DeAndre Jordan", 13.8, 12.7, 1.2},
		{"Nikola Jokic", 9.8, 16.7, 4.9},
		{"Jimmy Butler", 6.2, 23.9, 5.5},
		{"John Wall", 4.2, 23.1, 10.7},
		{"Kyle Lowry", 4.8, 22.4, 7.0},
	}
}

// Normalize10 rescales every attribute to [0, 10] by its column maximum —
// the rating-style scale the paper's examples use. The case studies depend
// on this normalization: score crossovers (e.g., Westbrook vs. Drummond at
// rebounding weight ≈ 0.72) match the paper's partition boundaries only
// when attributes are on comparable scales.
func Normalize10(data [][]float64) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	d := len(data[0])
	max := make([]float64, d)
	for _, p := range data {
		for i, v := range p {
			if v > max[i] {
				max[i] = v
			}
		}
	}
	out := make([][]float64, len(data))
	for j, p := range data {
		q := make([]float64, d)
		for i, v := range p {
			if max[i] > 0 {
				q[i] = v / max[i] * 10
			}
		}
		out[j] = q
	}
	return out
}

// PlayersMatrix projects the named player table onto the requested
// attribute columns: "reb", "pts", "ast".
func PlayersMatrix(players []Player, attrs ...string) ([][]float64, error) {
	out := make([][]float64, len(players))
	for i, p := range players {
		row := make([]float64, len(attrs))
		for j, a := range attrs {
			switch a {
			case "reb":
				row[j] = p.Rebounds
			case "pts":
				row[j] = p.Points
			case "ast":
				row[j] = p.Assists
			default:
				return nil, fmt.Errorf("dataset: unknown attribute %q", a)
			}
		}
		out[i] = row
	}
	return out, nil
}
