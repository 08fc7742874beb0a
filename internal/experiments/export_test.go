package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{ID: "t1", Title: "Test", XLabel: "x", Columns: []string{"a", "b"}}
	t.AddRow("10", 1.5, math.NaN())
	t.AddRow("20", 2.25, -3)
	t.Note("shape holds")
	return t
}

func TestJSONRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"id": "t1"`) || !strings.Contains(buf.String(), "null") {
		t.Fatalf("json = %s", buf.String())
	}
	var back jsonTable
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tb.ID || len(back.Rows) != 2 || back.Columns[1] != "b" {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Rows[0].Vals[1] != nil {
		t.Fatal("NaN not encoded as null")
	}
	if v := back.Rows[1].Vals[0]; v == nil || *v != 2.25 {
		t.Fatal("value lost")
	}
	if len(back.Notes) != 1 {
		t.Fatal("notes lost")
	}
}

func TestCSVExport(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "x,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10,1.5," {
		t.Fatalf("NaN row = %q", lines[1])
	}
	if lines[2] != "20,2.25,-3" {
		t.Fatalf("row = %q", lines[2])
	}
}
