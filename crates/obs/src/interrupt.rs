//! Process-signal plumbing for interruptible long-running phases.
//!
//! Several subsystems want to notice `SIGINT` / `SIGTERM` without dying
//! mid-write: the model checker's BFS polls a flag at state-expansion
//! boundaries so `splice check` can flush a partial report, `splice
//! profile` stops between workload rounds, and `splice serve` turns
//! `SIGTERM` into a graceful drain. The flags live here — in the
//! dependency-root observability crate — so every layer can poll them
//! without new edges in the crate graph.
//!
//! No external crates: the handlers go through the C library's `signal`
//! entry point, which every Rust binary on a `*-linux-gnu` / unix target
//! already links. Handlers only perform an atomic store, which is
//! async-signal-safe. On non-unix targets everything compiles to inert
//! no-ops (installation reports `false`).

use std::sync::atomic::{AtomicBool, Ordering};

/// `SIGINT` arrived since the last [`reset`].
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// `SIGTERM` arrived since the last [`reset`].
static TERMINATED: AtomicBool = AtomicBool::new(false);

/// Signal number of `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// Signal number of `SIGKILL` (uncatchable; [`send_signal`] only).
pub const SIGKILL: i32 = 9;
/// Signal number of `SIGPIPE` (write to a pipe nobody reads).
const SIGPIPE: i32 = 13;
/// Signal number of `SIGTERM` (polite shutdown request).
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
mod sys {
    use super::{INTERRUPTED, SIGINT, SIGTERM, TERMINATED};
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    extern "C" fn on_signal(signum: i32) {
        // Only atomic stores: the handler must stay async-signal-safe.
        match signum {
            SIGINT => INTERRUPTED.store(true, Ordering::SeqCst),
            SIGTERM => TERMINATED.store(true, Ordering::SeqCst),
            _ => {}
        }
    }

    pub fn install(signum: i32) -> bool {
        const SIG_ERR: usize = usize::MAX;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe { signal(signum, handler) != SIG_ERR }
    }

    pub fn send(pid: u32, sig: i32) -> bool {
        unsafe { kill(pid as i32, sig) == 0 }
    }

    pub fn default_action(signum: i32) -> bool {
        const SIG_DFL: usize = 0;
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: `SIG_DFL` installs no handler code, and `signal` rejects
        // an invalid signal number by returning `SIG_ERR`.
        unsafe { signal(signum, SIG_DFL) != SIG_ERR }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install(_signum: i32) -> bool {
        false
    }

    pub fn send(_pid: u32, _sig: i32) -> bool {
        false
    }

    pub fn default_action(_signum: i32) -> bool {
        false
    }
}

/// Install the flag-setting handler for `SIGINT`. Returns `false` when the
/// platform refused (or has no signals at all); the flags then simply never
/// fire, which callers already handle.
pub fn install_sigint() -> bool {
    sys::install(SIGINT)
}

/// Install the flag-setting handler for `SIGTERM`.
pub fn install_sigterm() -> bool {
    sys::install(SIGTERM)
}

/// Restore the default `SIGPIPE` action, which the Rust runtime replaces
/// with `SIG_IGN`. A command-line tool whose reader hangs up (`splice lint
/// … | head`) then ends quietly, like any Unix filter, instead of
/// panicking on the `EPIPE` its next print returns. A long-lived server
/// must keep `SIG_IGN`: there a client hang-up has to stay an `EPIPE`
/// error rather than kill the process.
pub fn default_sigpipe() -> bool {
    sys::default_action(SIGPIPE)
}

/// Has `SIGINT` arrived since startup / the last [`reset`]?
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Has `SIGTERM` arrived since startup / the last [`reset`]?
pub fn term_requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// Either shutdown-ish signal arrived.
pub fn stop_requested() -> bool {
    interrupted() || term_requested()
}

/// Clear both flags (used by the daemon after completing a drain, and by
/// tests).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
    TERMINATED.store(false, Ordering::SeqCst);
}

/// Raise a flag *as if* the signal had arrived — lets tests exercise the
/// interrupt paths without delivering a real signal to the test runner.
pub fn simulate(signum: i32) {
    match signum {
        SIGINT => INTERRUPTED.store(true, Ordering::SeqCst),
        SIGTERM => TERMINATED.store(true, Ordering::SeqCst),
        _ => {}
    }
}

/// Send `sig` to `pid` (`kill(2)`). Used by the supervisor to stop workers
/// and by the fault-injection harness to SIGKILL them mid-batch. Returns
/// `false` on failure (no such process, or a non-unix platform).
pub fn send_signal(pid: u32, sig: i32) -> bool {
    sys::send(pid, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_and_reset_drive_the_flags() {
        reset();
        assert!(!interrupted() && !term_requested() && !stop_requested());
        simulate(SIGINT);
        assert!(interrupted() && stop_requested());
        simulate(SIGTERM);
        assert!(term_requested());
        reset();
        assert!(!stop_requested());
    }

    #[cfg(unix)]
    #[test]
    fn handlers_install() {
        assert!(install_sigint());
        assert!(install_sigterm());
    }
}
