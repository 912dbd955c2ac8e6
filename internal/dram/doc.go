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
// returns a capped view of it, so neither allocates. Equal compares
// pages, with a missing page counting as zero. Touched is a running
// count of bitmap bits, so the written-slot count stays exact even for
// explicit zero writes. Each visits the written slots; the page layout
// never leaves the package.
//
// # Copy-on-write clones
//
// Clone and CloneInto copy only the page table. The clone shares every
// page slab and the page index with its source, and the contract is:
//
//   - A shared slab is never written in place. Each slab carries a
//     holder count (one extra word at the end of its allocation) of the
//     page tables that point at it. Write copies a page whose count is
//     above one into a private slab, then drops its hold on the old
//     one; a store that finds itself the only holder writes in place.
//     So after a clone the first write to a page on either side copies
//     it, and once one side has copied, the other writes in place.
//   - The index is shared the same way and copied by the first store
//     that adds a page to it.
//   - Clone only reads its source, apart from atomic increments of the
//     holder counts, so any number of goroutines may clone and read one
//     store nobody writes (the runner's kernel cache does). A store is
//     not safe for a Write concurrent with anything else on it.
//   - Counts may only overstate: a store that is dropped without being
//     reused never releases its holds, which costs its sharers an
//     extra copy, never a wrong byte. CloneInto releases what its
//     destination held before.
//   - Equal and Diff skip pages whose slab both stores share.
//
// A clone costs two allocations (header and page table) whatever the
// page count, and CloneInto a store whose page table is large enough
// costs none.
package dram
