package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asmsim/internal/exp"
)

func sampleTables() []*exp.Table {
	a := &exp.Table{ID: "fig1", Title: "one", Header: []string{"x", "y"}}
	a.AddRow("1", "2")
	b := &exp.Table{ID: "fig2", Title: "two", Header: []string{"p"}}
	b.AddRow("q")
	b.AddNote("partial-free")
	return []*exp.Table{a, b}
}

// TestRenderAllJSONIsOneValue: piping `-format json` must always yield a
// single parseable JSON value — an object for one table, an array for
// several.
func TestRenderAllJSONIsOneValue(t *testing.T) {
	tables := sampleTables()

	out, err := renderAll(tables, "json")
	if err != nil {
		t.Fatal(err)
	}
	var arr []exp.Table
	if err := json.Unmarshal([]byte(out), &arr); err != nil {
		t.Fatalf("multi-table JSON is not one array: %v\n%s", err, out)
	}
	if len(arr) != 2 || arr[0].ID != "fig1" || arr[1].ID != "fig2" {
		t.Fatalf("array round-trip: %+v", arr)
	}

	out, err = renderAll(tables[:1], "json")
	if err != nil {
		t.Fatal(err)
	}
	var obj exp.Table
	if err := json.Unmarshal([]byte(out), &obj); err != nil {
		t.Fatalf("single-table JSON is not one object: %v\n%s", err, out)
	}
	if obj.ID != "fig1" {
		t.Fatalf("object round-trip: %+v", obj)
	}
}

func TestRenderAllTextAndCSV(t *testing.T) {
	tables := sampleTables()
	out, err := renderAll(tables, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== fig1: one ==") || !strings.Contains(out, "== fig2: two ==") {
		t.Fatalf("text output:\n%s", out)
	}
	out, err = renderAll(tables, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x,y") || !strings.Contains(out, "# partial-free") {
		t.Fatalf("csv output:\n%s", out)
	}
	if _, err := renderAll(tables, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestEmitEmptyRunWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := emit(&buf, nil, "json"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty run wrote %q", buf.String())
	}
}
