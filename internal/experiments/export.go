package experiments

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// jsonTable is the machine-readable form of a Table. NaN cells (no sample)
// are encoded as null.
type jsonTable struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	XLabel  string    `json:"xlabel"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

type jsonRow struct {
	X    string     `json:"x"`
	Vals []*float64 `json:"vals"`
}

// WriteJSON encodes the table as a single JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	jt := jsonTable{
		ID: t.ID, Title: t.Title, XLabel: t.XLabel,
		Columns: t.Columns, Notes: t.Notes,
	}
	for _, r := range t.Rows {
		jr := jsonRow{X: r.X, Vals: make([]*float64, len(r.Vals))}
		for i, v := range r.Vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				v := v
				jr.Vals[i] = &v
			}
		}
		jt.Rows = append(jt.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// WriteCSV encodes the table as CSV with a header row; NaN cells are empty.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{t.XLabel}, t.Columns...)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Vals)+1)
		rec = append(rec, r.X)
		for _, v := range r.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rec = append(rec, "")
			} else {
				rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
