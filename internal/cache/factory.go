package cache

import "fmt"

// Design names other packages select by; Designs lists every name New
// accepts.
const (
	DesignConventional = "conventional"
	DesignPiccolo      = "piccolo"
)

// Designs lists every cache design in Fig. 11 presentation order.
func Designs() []string {
	return []string{
		"sectored", "amoeba", "scrabble", "graphfire",
		DesignPiccolo, "piccolo-rrip", "8b-line",
	}
}

// setAssocDesigns are the designs New builds as a setAssoc. The literature
// designs (Fig. 11) are modelled by the effective-capacity loss the paper
// attributes to them: an 8B-line cache keeping dataEighths/8 of its ways
// (rounded up) for data, the rest going to metadata stored in the array.
var setAssocDesigns = map[string]struct {
	name            string
	lineBytes, fill uint64
	dataEighths     int
}{
	DesignConventional: {"conventional-64B", 64, 64, 8},
	"8b-line":          {"8B-line", 8, 8, 8},
	"sectored":         {"sectored", 64, 8, 8},
	"amoeba":           {"amoeba", 8, 8, 5},    // Amoeba-Cache [44]: tags in the data array
	"graphfire":        {"graphfire", 8, 8, 6}, // Graphfire [60]: per-word prediction metadata
	"scrabble":         {"scrabble", 8, 8, 7},  // Scrabble [102]: merged blocks, modest metadata
}

// New builds a cache design by name.
func New(design string, capacity uint64, ways int) (Cache, error) {
	switch design {
	case DesignPiccolo:
		return NewPiccolo(capacity, LRU)
	case "piccolo-rrip":
		return NewPiccolo(capacity, RRIP)
	}
	d, ok := setAssocDesigns[design]
	if !ok {
		return nil, fmt.Errorf("cache: unknown design %q", design)
	}
	// Fewer ways over the same sets, so set counts stay powers of two.
	if data := (ways*d.dataEighths + 7) / 8; data != ways {
		capacity = capacity / uint64(ways) * uint64(data)
		ways = data
	}
	return newSetAssoc(d.name, capacity, ways, d.lineBytes, d.fill)
}
