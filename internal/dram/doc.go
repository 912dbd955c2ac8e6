// Package dram models the HBM memory device of Table 1: address
// geometry, per-bank timing state machines enforcing the paper's
// timing parameters, and a functional backing store so that PIM
// commands move real data.
//
// # Address granularity
//
// The unit of address in the simulator is one command slot: the 32 B
// host-visible column access a fine-grained PIM command performs.
// Under a bandwidth multiplication factor (BMF) of k, the PIM units
// ganged behind a channel move k x 32 B per command, so each slot
// carries 8*BMF int32 lanes of payload while occupying the timing of a
// single 32 B column access. This matches the paper's definition of
// PIM data bandwidth as command bandwidth x BMF (§6) and keeps Figure
// 11's "8 column writes per 256 B temporary storage" arithmetic exact.
//
// # Timing
//
// Timing enforces tRCD/tRP/tRAS/tCCD/tRRD/tWTR/tRTW and row state per
// bank; the FR-FCFS scheduler in internal/memctrl consults it through
// CanIssue/Earliest. The row hit/miss behavior it produces drives the
// peak-command-bandwidth ceiling of Figure 11 and the row-hit-rate
// columns of the experiment tables. All-bank refresh (tREFI/tRFC) is
// owned by the controller and off by default, matching the paper's
// setup; the ablation-refresh experiment turns it on.
//
// # Backing store
//
// Store holds the channel-partitioned int32 image the PIM units compute
// over. It is what functional verification diffs against the reference
// executor, making ordering bugs visible as wrong bytes (Figure 5's
// broken no-primitive bars).
//
// The store is paged. Slot address a lives in page a>>6 at offset
// a&63: a page is one contiguous []int32 of 64*lanes lanes plus a
// 64-bit bitmap of the slots ever written, and a map from page number
// to page index finds it. Because addresses interleave channels at
// slot granularity, the slots a kernel initializes fill whole pages.
// A page is allocated the first time one of its slots is written;
// every later Write copies into the page, and Read of a written slot
// returns a capped view of it, so neither allocates. Clone copies page
// by page, one allocation each. Equal compares pages, with a missing
// page counting as zero. Touched is a running count of bitmap bits, so
// the written-slot count stays exact even for explicit zero writes.
// Each visits the written slots; the page layout never leaves the
// package.
package dram
