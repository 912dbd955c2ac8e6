package dram

import (
	"fmt"

	"orderlight/internal/config"
)

// Cmd is a DRAM device command.
type Cmd uint8

const (
	// CmdACT opens (activates) a row in a bank.
	CmdACT Cmd = iota
	// CmdPRE closes (precharges) the open row of a bank.
	CmdPRE
	// CmdRD performs one 32 B column read from the open row.
	CmdRD
	// CmdWR performs one 32 B column write to the open row.
	CmdWR
)

// String implements fmt.Stringer.
func (c Cmd) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	default:
		return fmt.Sprintf("Cmd(%d)", uint8(c))
	}
}

// noRow marks a closed bank.
const noRow = -1

// bank is the timing state of one DRAM bank. All times are memory-clock
// cycle numbers at which the next command of each type becomes legal.
type bank struct {
	openRow int
	nextACT int64
	nextPRE int64
	nextRD  int64
	nextWR  int64
}

// Timing enforces the Table 1 DRAM timing constraints for one channel:
// per-bank row timing plus channel-global column-to-column and
// activate-to-activate spacing. It deliberately exposes a narrow
// CanIssue/Issue API so the memory controller cannot bypass a check.
type Timing struct {
	t     config.DRAMTiming
	banks []bank

	lastACT      int64 // channel-global, for tRRD
	lastCol      int64 // cycle of last column command on the channel bus
	lastColBank  int
	lastColWrite bool
	anyCol       bool // a column command has been issued before
	anyACT       bool
}

// NewTiming creates the timing checker for one channel with nbanks
// banks, all initially closed and immediately available.
func NewTiming(t config.DRAMTiming, nbanks int) *Timing {
	tm := new(Timing)
	tm.Reset(t, nbanks)
	return tm
}

// Reset returns the checker to its initial state with new timing
// parameters and bank count, keeping its bank array when it is large
// enough.
func (tm *Timing) Reset(t config.DRAMTiming, nbanks int) {
	banks := tm.banks[:0]
	if cap(banks) < nbanks {
		banks = make([]bank, 0, nbanks)
	}
	for range nbanks {
		banks = append(banks, bank{openRow: noRow})
	}
	*tm = Timing{t: t, banks: banks, lastColBank: -1}
}

// OpenRow returns the open row of a bank, or -1 if closed.
func (tm *Timing) OpenRow(b int) int { return tm.banks[b].openRow }

// colEarliest returns the earliest legal cycle for a column command on
// bank b given channel-global column spacing and read/write turnaround.
func (tm *Timing) colEarliest(b int, write bool) int64 {
	if !tm.anyCol {
		return 0
	}
	var gap int64
	if b == tm.lastColBank {
		gap = int64(tm.t.CCDL)
	} else {
		gap = int64(tm.t.CCD)
	}
	earliest := tm.lastCol + gap
	// Bus turnaround between reads and writes (tCDLR in Table 1; applied
	// symmetrically — the write-to-read gap is not listed separately).
	if write != tm.lastColWrite {
		if e := tm.lastCol + int64(tm.t.CDLR); e > earliest {
			earliest = e
		}
	}
	return earliest
}

// Earliest returns the earliest memory cycle at which cmd targeting
// (bank b, row) could legally issue, or -1 if the command is illegal in
// the current state regardless of time (e.g. RD on a closed bank).
func (tm *Timing) Earliest(cmd Cmd, b, row int) int64 {
	bk := &tm.banks[b]
	switch cmd {
	case CmdACT:
		if bk.openRow != noRow {
			return -1
		}
		e := bk.nextACT
		if tm.anyACT {
			if r := tm.lastACT + int64(tm.t.RRD); r > e {
				e = r
			}
		}
		return e
	case CmdPRE:
		if bk.openRow == noRow {
			return -1
		}
		return bk.nextPRE
	case CmdRD:
		if bk.openRow != row {
			return -1
		}
		e := bk.nextRD
		if c := tm.colEarliest(b, false); c > e {
			e = c
		}
		return e
	case CmdWR:
		if bk.openRow != row {
			return -1
		}
		e := bk.nextWR
		if c := tm.colEarliest(b, true); c > e {
			e = c
		}
		return e
	default:
		panic(fmt.Sprintf("dram: unknown command %v", cmd))
	}
}

// CanIssue reports whether cmd may issue at the given memory cycle.
func (tm *Timing) CanIssue(cmd Cmd, b, row int, cycle int64) bool {
	e := tm.Earliest(cmd, b, row)
	return e >= 0 && cycle >= e
}

// Issue applies cmd at the given cycle, updating all timing state. It
// panics if the command is illegal at that cycle — the checker is the
// single source of truth and controllers must consult CanIssue first.
func (tm *Timing) Issue(cmd Cmd, b, row int, cycle int64) {
	if !tm.CanIssue(cmd, b, row, cycle) {
		panic(fmt.Sprintf("dram: illegal %v bank=%d row=%d at cycle %d (earliest %d, open row %d)",
			cmd, b, row, cycle, tm.Earliest(cmd, b, row), tm.banks[b].openRow))
	}
	bk := &tm.banks[b]
	switch cmd {
	case CmdACT:
		bk.openRow = row
		bk.nextRD = cycle + int64(tm.t.RCDR)
		bk.nextWR = cycle + int64(tm.t.RCDW)
		bk.nextPRE = cycle + int64(tm.t.RAS)
		tm.lastACT = cycle
		tm.anyACT = true
	case CmdPRE:
		bk.openRow = noRow
		bk.nextACT = cycle + int64(tm.t.RP)
	case CmdRD:
		if e := cycle + int64(tm.t.RTP); e > bk.nextPRE {
			bk.nextPRE = e
		}
		tm.lastCol, tm.lastColBank, tm.lastColWrite, tm.anyCol = cycle, b, false, true
	case CmdWR:
		if e := cycle + int64(tm.t.WTP); e > bk.nextPRE {
			bk.nextPRE = e
		}
		tm.lastCol, tm.lastColBank, tm.lastColWrite, tm.anyCol = cycle, b, true, true
	}
}
