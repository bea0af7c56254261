package routing

import (
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/radio"
)

// dumpRecorder is a DSDV node that also records every update it hears.
type dumpRecorder struct {
	*DSDV
	heard [][]advEntry
}

func (r *dumpRecorder) HandlePacket(from int, pkt *mac.Packet) {
	if u, ok := pkt.Payload.(*dsdvUpdate); ok {
		r.heard = append(r.heard, u.entries)
	}
	r.DSDV.HandlePacket(from, pkt)
}

// TestDSDVFullDumpAscending: full dumps advertise every known row in
// ascending destination order, whatever order the rows were learned in
// and however sparse the ids are.
func TestDSDVFullDumpAscending(t *testing.T) {
	var rec *dumpRecorder
	tb := newRTB(t, 1, radio.Cabletron, []geom.Point{{X: 0}, {X: 100}}, func(e *Env) Protocol {
		if e.ID == 1 {
			rec = &dumpRecorder{DSDV: NewDSDV(e, false)}
			return rec
		}
		return NewDSDV(e, false)
	})
	d := tb.protos[0].(*DSDV)
	for _, dst := range []int{9, 3, 6} {
		d.table.add(dst, dsdvEntry{next: 1, metric: 2, seq: uint64(2 * dst)})
	}
	tb.sim.Schedule(time.Millisecond, d.broadcastFull)
	tb.sim.Run(time.Second)
	if len(rec.heard) == 0 {
		t.Fatal("no update heard")
	}
	for _, entries := range rec.heard {
		seen := map[int]bool{}
		for i, e := range entries {
			if i > 0 && entries[i-1].dst >= e.dst {
				t.Fatalf("dump not ascending: %+v", entries)
			}
			seen[e.dst] = true
		}
		for _, dst := range []int{0, 3, 6, 9} {
			if !seen[dst] {
				t.Fatalf("dump %+v misses destination %d", entries, dst)
			}
		}
	}
}

// TestDSDVForwardUnknownDestinationDrops: data for an id the table has
// never reached — beyond its end, or negative — is a counted drop.
func TestDSDVForwardUnknownDestinationDrops(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSDV(e, false)
	})
	d := tb.protos[0].(*DSDV)
	for i, dst := range []int{1000, -5} {
		d.Send(dst, 128, nil, 0)
		if got := d.Stats().DataDropped; got != uint64(i+1) {
			t.Fatalf("after Send(%d): DataDropped = %d, want %d", dst, got, i+1)
		}
	}
}

// TestDSDVTableRows: Table reports exactly the learned rows, not the gaps
// between their ids.
func TestDSDVTableRows(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSDV(e, false)
	})
	d := tb.protos[0].(*DSDV)
	d.table.add(5, dsdvEntry{next: 1, metric: 3, seq: 8})
	d.table.add(2, dsdvEntry{next: 1, metric: 2, seq: 4})
	got := d.Table()
	if len(got) != 3 {
		t.Fatalf("Table = %+v, want rows 0, 2 and 5", got)
	}
	if e := got[0]; e.Next != 0 || e.Metric != 0 {
		t.Errorf("self row = %+v", e)
	}
	if e := got[2]; e.Next != 1 || e.Metric != 2 || e.Seq != 4 {
		t.Errorf("row 2 = %+v", e)
	}
	if e := got[5]; e.Next != 1 || e.Metric != 3 || e.Seq != 8 {
		t.Errorf("row 5 = %+v", e)
	}
}
