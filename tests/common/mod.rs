//! Helpers shared by the integration suites. Every suite that declares
//! `mod common;` compiles its own copy, so the lock below serialises the
//! tests of one suite binary, not of the whole test run.

// Each suite uses a subset of the helpers.
#![allow(dead_code)]

use igpm::graph::fail;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of a suite that take it: the failpoint registry is
/// process-global, so a test that only runs engines would otherwise race
/// with a test that has a site armed.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the suite's [`SERIAL`] lock, also after a test panicked holding it.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with `site` armed and the default panic hook muted (the injected
/// panics would otherwise spray backtraces over the test output). The hook
/// swap is safe under [`serial`].
pub fn with_armed<T>(site: &str, f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = {
        let _armed = fail::arm_scoped(site);
        f()
    };
    std::panic::set_hook(hook);
    result
}
