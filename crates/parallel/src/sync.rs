//! Synchronization facade: `std::sync` in normal builds, `loom` under
//! model checking.
//!
//! Every synchronization primitive the scheduler's *protocol* relies on —
//! the deque's `top`/`bottom`/`buffer` atomics, the counters' stop flag,
//! the pool's in-flight count, injector mutex and park condvar — is
//! imported through this module. A normal build re-exports `std::sync`
//! unchanged (zero cost: the re-exports inline away). Building with
//! `RUSTFLAGS="--cfg loom"` swaps in the loom model checker, whose
//! primitives are scheduler yield points, so `cargo test --cfg loom` can
//! exhaustively explore interleavings (bounded preemptions; see
//! `shims/loom`).
//!
//! Diagnostic state — steal/park statistics, victim-selection RNG cells,
//! the injected tally, the deque grow counter — also routes
//! through the facade. It costs a few extra loom yield points, but it
//! means *no* atomic in the scheduler is invisible to the model (the
//! `xlint` sync-facade rule enforces this mechanically), and the grow
//! counter can be asserted coherent in `tests/loom_deque.rs`.

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Atomic types and fences (`loom`-swappable).
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Spin-loop hint (a scheduler yield point under loom).
pub mod hint {
    #[cfg(loom)]
    pub use loom::hint::spin_loop;

    #[cfg(not(loom))]
    pub use std::hint::spin_loop;
}
