// Fixtures for the metriccatalog analyzer: every pace_* metric name
// registered in code must be a full name listed in the module's DESIGN.md
// catalog (testdata/DESIGN.md for this fixture module).
package metriccatalog

const counterName = "pace_good_total"

var histName = "pace_hist_ns"

func register() []string {
	return []string{
		counterName,
		histName,
		"pace_unread_total", // catalogued without a reader: a RunGlobal finding
		"pace_rogue_total",  // want "not in the catalog"
	}
}

// Conforming: not metric names at all.
const (
	prose     = "pace keeps the catalog honest"
	uppercase = "PACE_NOT_A_METRIC"
)

// Conforming via directive: an experimental metric documented on
// graduation rather than at birth.
func experimental() string {
	//pacelint:allow metriccatalog experimental metric behind a flag; catalogued on graduation
	return "pace_experimental_total"
}
