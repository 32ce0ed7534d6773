package noc

import "math/bits"

// rowWorklist tracks the set of active tiles (routers with buffered
// flits, NIs with injection backlog) as one bitmap per mesh row plus a
// per-row population count. It replaces the old sorted-slice worklists
// whose insertSorted cost O(n) copies per activation: add and clear are
// now a single masked OR/AND-NOT, and iteration via TrailingZeros64
// still visits tiles in exactly ascending id order (row-major words,
// ascending bits), which is what keeps fixed-seed runs bit-identical.
//
// The per-row counters let Step skip idle rows without scanning their
// words, and let total() answer the idle-cycle early-out with one add
// per row.
type rowWorklist struct {
	cols int
	wpr  int      // words per row: ceil(cols/64)
	bits []uint64 // rows * wpr words, row-major
	cnt  []int32  // active tiles per row
}

func newRowWorklist(rows, cols int) *rowWorklist {
	wpr := (cols + 63) >> 6
	return &rowWorklist{
		cols: cols,
		wpr:  wpr,
		bits: make([]uint64, rows*wpr),
		cnt:  make([]int32, rows),
	}
}

// add marks tile (row, col) active. Callers guard with a queued flag,
// so a tile is never added twice.
func (w *rowWorklist) add(row, col int) {
	w.bits[row*w.wpr+(col>>6)] |= 1 << uint(col&63)
	w.cnt[row]++
}

// clear removes tile (row, col).
func (w *rowWorklist) clear(row, col int) {
	w.bits[row*w.wpr+(col>>6)] &^= 1 << uint(col&63)
	w.cnt[row]--
}

// rowCount returns the number of active tiles in row.
func (w *rowWorklist) rowCount(row int) int32 { return w.cnt[row] }

// total returns the number of active tiles. The per-row counters are a
// short array (one int32 per mesh row), so this is a handful of adds —
// cheap enough for the idle-cycle early-out.
func (w *rowWorklist) total() int {
	var t int32
	for _, c := range w.cnt {
		t += c
	}
	return int(t)
}

// appendRow appends the active tile ids of row to dst in ascending
// order and returns the extended slice.
func (w *rowWorklist) appendRow(dst []int32, row int) []int32 {
	base := int32(row * w.cols)
	off := row * w.wpr
	for wi := 0; wi < w.wpr; wi++ {
		word := w.bits[off+wi]
		wb := base + int32(wi<<6)
		for word != 0 {
			dst = append(dst, wb+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// anyID calls f on active tile ids in ascending order until f reports
// done, and returns whether it did. Used by Busy-style probes that
// want early exit without materializing the id list.
func (w *rowWorklist) anyID(f func(id int32) bool) bool {
	for row := range w.cnt {
		if w.cnt[row] == 0 {
			continue
		}
		base := int32(row * w.cols)
		off := row * w.wpr
		for wi := 0; wi < w.wpr; wi++ {
			word := w.bits[off+wi]
			wb := base + int32(wi<<6)
			for word != 0 {
				if f(wb + int32(bits.TrailingZeros64(word))) {
					return true
				}
				word &= word - 1
			}
		}
	}
	return false
}
