//! A steady-state silent refill allocates the COTs it produces and a few KB.
//!
//! One refill fills one buffer of `n` blocks, and on the receiver's side
//! `n` choice bits: the GGM forest grows inside it, LPN adds the public code
//! into it, and it becomes the pool. The code is derived once per process.
//! Past that buffer a refill allocates its frames and a few blocks a tree
//! level. This binary counts what each thread allocates, so a per-refill
//! code, a second leaf buffer or per-level vectors that come back fail here
//! (each is 128-256 KB on the CI preset).
//!
//! Its own test binary, because a `#[global_allocator]` is process-wide.

use abnn2::net::{run_pair, NetworkModel};
use abnn2::ot::{LpnParams, SilentCotReceiver, SilentCotSender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// count is a thread-local `Cell` with a const initializer, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATED.with(Cell::get);
    black_box(f());
    ALLOCATED.with(Cell::get) - before
}

/// Frames, the per-tree vectors and the one COT taken.
const FEW_KB: usize = 24 << 10;

#[test]
fn a_steady_state_refill_allocates_its_output_and_a_few_kb() {
    let p = LpnParams::CI;
    // Draining one refill's yield runs the bootstrap and the refill it
    // seeds (deriving the code); one more COT runs a self-seeded refill.
    let (sender, receiver, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut s = SilentCotSender::setup(ch, &mut StdRng::seed_from_u64(1)).expect("setup");
            s.take(ch, p.refill_yield()).expect("first refill");
            allocated_by(|| s.take(ch, 1).expect("steady refill"))
        },
        move |ch| {
            let mut r = SilentCotReceiver::setup(ch, &mut StdRng::seed_from_u64(2)).expect("setup");
            r.take(ch, p.refill_yield()).expect("first refill");
            allocated_by(|| r.take(ch, 1).expect("steady refill"))
        },
    );
    let blocks = p.n * 16;
    let bits = p.n.div_ceil(64) * 8;
    assert!(sender >= blocks && sender <= blocks + FEW_KB, "sender refill allocated {sender} B");
    assert!(
        receiver >= blocks + bits && receiver <= blocks + bits + FEW_KB,
        "receiver refill allocated {receiver} B"
    );
}
