package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Row is a generic string-keyed record used by the transformation and
// integration workloads before data reaches the relational engine.
type Row map[string]string

// TabularSet is a generated tabular dataset with controlled quality defects:
// missing values, inconsistent date formats and near-duplicate entities.
// It exercises data cleaning, entity resolution and missing-field imputation
// (paper Sections II-A2, II-B3, II-C1).
type TabularSet struct {
	Cols []string
	Rows []Row
	// DuplicatePairs lists index pairs (i, j) that refer to the same
	// real-world entity (gold labels for entity resolution).
	DuplicatePairs [][2]int
	// MissingCells lists (row, col) cells blanked out, with the gold value
	// retained for imputation grading.
	MissingCells []MissingCell
}

// MissingCell records one blanked cell and its gold value.
type MissingCell struct {
	Row  int
	Col  string
	Gold string
}

// dateFormats are the clashing representations of the same day the paper's
// column-transformation example uses ("Aug 14 2023" vs "8/14/2023").
var months = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// FormatDateWords renders a date like "Aug 14 2023".
func FormatDateWords(y, m, d int) string {
	return fmt.Sprintf("%s %02d %d", months[m-1], d, y)
}

// FormatDateSlash renders a date like "8/14/2023".
func FormatDateSlash(y, m, d int) string {
	return fmt.Sprintf("%d/%d/%d", m, d, y)
}

// FormatDateISO renders a date like "2023-08-14".
func FormatDateISO(y, m, d int) string {
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// GenCustomers generates a customer table with injected defects.
// missingRate blanks that fraction of non-key cells; dupRate appends that
// fraction of rows again as noisy near-duplicates.
func GenCustomers(seed int64, n int, missingRate, dupRate float64) *TabularSet {
	rng := rand.New(rand.NewSource(seed))
	set := &TabularSet{Cols: []string{"customer_id", "name", "city", "country", "signup_date", "segment"}}
	segments := []string{"retail", "enterprise", "smb"}
	kb := GenKB(seed + 7)

	// Distinct base names: rows referring to the same real-world entity are
	// exactly the injected duplicate pairs, so entity-resolution gold labels
	// are unambiguous.
	usedNames := map[string]bool{}
	freshName := func() string {
		for {
			name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
			if !usedNames[name] {
				usedNames[name] = true
				return name
			}
			if len(usedNames) >= len(firstNames)*len(lastNames) {
				name = fmt.Sprintf("%s %d", name, len(usedNames))
				usedNames[name] = true
				return name
			}
		}
	}

	for i := 0; i < n; i++ {
		c := kb.Cities[rng.Intn(len(kb.Cities))]
		y, m, d := 2015+rng.Intn(9), 1+rng.Intn(12), 1+rng.Intn(28)
		set.Rows = append(set.Rows, Row{
			"customer_id": fmt.Sprintf("C%04d", i+1),
			"name":        freshName(),
			"city":        c.Name,
			"country":     c.Country,
			"signup_date": FormatDateWords(y, m, d),
			"segment":     segments[rng.Intn(len(segments))],
		})
	}

	// Near-duplicates: re-emit some rows with typos, case changes and the
	// alternative date format.
	nDup := int(float64(n) * dupRate)
	duplicated := make(map[int]bool, nDup)
	for k := 0; k < nDup; k++ {
		i := rng.Intn(n)
		duplicated[i] = true
		orig := set.Rows[i]
		dup := Row{}
		for c, v := range orig {
			dup[c] = v
		}
		dup["customer_id"] = fmt.Sprintf("C%04d", len(set.Rows)+1)
		dup["name"] = perturbName(rng, orig["name"])
		if y, m, d, ok := parseWordsDate(orig["signup_date"]); ok {
			dup["signup_date"] = FormatDateSlash(y, m, d)
		}
		if rng.Float64() < 0.5 {
			dup["city"] = strings.ToUpper(orig["city"])
		}
		set.DuplicatePairs = append(set.DuplicatePairs, [2]int{i, len(set.Rows)})
		set.Rows = append(set.Rows, dup)
	}

	// Missing cells (never the key, and never on rows participating in a
	// duplicate pair, to keep the gold pairs intact).
	for i := 0; i < n; i++ {
		if duplicated[i] {
			continue
		}
		for _, c := range []string{"city", "country", "segment"} {
			if rng.Float64() < missingRate {
				set.MissingCells = append(set.MissingCells, MissingCell{Row: i, Col: c, Gold: set.Rows[i][c]})
				set.Rows[i][c] = ""
			}
		}
	}
	return set
}

// perturbName introduces one small typo or case change.
func perturbName(rng *rand.Rand, name string) string {
	switch rng.Intn(3) {
	case 0:
		return strings.ToUpper(name)
	case 1: // drop one interior character
		if len(name) > 4 {
			i := 1 + rng.Intn(len(name)-2)
			return name[:i] + name[i+1:]
		}
		return name
	default: // duplicate one character
		i := rng.Intn(len(name))
		return name[:i] + string(name[i]) + name[i:]
	}
}

// parseWordsDate parses "Aug 14 2023".
func parseWordsDate(s string) (y, m, d int, ok bool) {
	parts := strings.Fields(s)
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	for i, mo := range months {
		if strings.EqualFold(mo, parts[0]) {
			m = i + 1
		}
	}
	if m == 0 {
		return 0, 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &d); err != nil {
		return 0, 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &y); err != nil {
		return 0, 0, 0, false
	}
	return y, m, d, true
}

// ColumnTypeSample is one labeled column for the column-type-annotation
// task: sample values plus the gold type label (paper Section II-C1).
type ColumnTypeSample struct {
	Values []string
	Gold   string
}

// GenColumnTypeBench generates labeled columns over the paper's example
// label set (country, person, date, movie, sports) plus city and number.
//
//llmdm:allow reach a fixture the core packages' tests build on
func GenColumnTypeBench(seed int64, n int) []ColumnTypeSample {
	rng := rand.New(rand.NewSource(seed))
	kb := GenKB(seed + 11)
	sportsVals := []string{"Basketball", "Badminton", "Table Tennis", "Football", "Cricket", "Rugby", "Tennis", "Hockey"}
	movieVals := []string{"The Silent Sea", "Granite Sky", "Midnight Ledger", "Paper Comets", "The Long Portage", "Iron Harvest", "Glass Harbor", "Northern Line"}

	var out []ColumnTypeSample
	for i := 0; i < n; i++ {
		var s ColumnTypeSample
		k := 3 + rng.Intn(3)
		switch i % 6 {
		case 0:
			s.Gold = "country"
			for j := 0; j < k; j++ {
				s.Values = append(s.Values, countries[rng.Intn(len(countries))])
			}
		case 1:
			s.Gold = "person"
			for j := 0; j < k; j++ {
				s.Values = append(s.Values, kb.People[rng.Intn(len(kb.People))].Name)
			}
		case 2:
			s.Gold = "date"
			for j := 0; j < k; j++ {
				y, m, d := 1990+rng.Intn(34), 1+rng.Intn(12), 1+rng.Intn(28)
				switch rng.Intn(3) {
				case 0:
					s.Values = append(s.Values, FormatDateWords(y, m, d))
				case 1:
					s.Values = append(s.Values, FormatDateSlash(y, m, d))
				default:
					s.Values = append(s.Values, FormatDateISO(y, m, d))
				}
			}
		case 3:
			s.Gold = "movie"
			for j := 0; j < k; j++ {
				s.Values = append(s.Values, movieVals[rng.Intn(len(movieVals))])
			}
		case 4:
			s.Gold = "sports"
			for j := 0; j < k; j++ {
				s.Values = append(s.Values, sportsVals[rng.Intn(len(sportsVals))])
			}
		default:
			s.Gold = "city"
			for j := 0; j < k; j++ {
				s.Values = append(s.Values, cityNames[rng.Intn(len(cityNames))])
			}
		}
		out = append(out, s)
	}
	return out
}
