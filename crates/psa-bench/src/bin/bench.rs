//! `bench` — the one command that produces every paper-reproduction
//! number: `bench tables <section|all>` prints tables 1–3 and the in-text
//! numbers, `bench <3|4|5|6|7|8>` writes `BENCH_<id>.json`. The command
//! line lives in `psa_bench::cli`; this file only hosts the counting
//! allocator `bench 4` reads its allocation counts from.

// A counting `#[global_allocator]` is the point of this file and
// `GlobalAlloc` is an unsafe trait; the impl below only delegates to
// `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use psa_bench::export4::HEAP_ALLOCATIONS;

/// Counts every heap allocation made by this binary.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(psa_bench::cli::run(std::env::args().skip(1)));
}
