//! Nested panic-hook silencing: `pgvn serve` and the fuzz oracle both
//! take the refcounted [`pgvn::oracle::silence_panic_hook`] guard, and
//! nesting them (a serve session inside a fuzz-style guard) must keep
//! the hook silent for the whole union of their lifetimes and restore
//! the original hook exactly once afterwards.
//!
//! This test lives alone in its own integration-test binary because it
//! asserts on the process-global panic hook; sharing a process with
//! other tests that take the guard would race the refcount.

use pgvn::serve::proto::{read_frame, write_frame, FrameEvent};
use pgvn::serve::{serve_duplex, ServeOptions};
use pgvn::telemetry::Metric;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};

static SENTINEL_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn nested_serve_and_fuzz_guards_silence_once_and_restore_once() {
    // Install a sentinel hook so we can observe exactly when panics
    // become audible again.
    std::panic::set_hook(Box::new(|_| {
        SENTINEL_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    {
        // Outer guard: what the fuzz oracle takes around a campaign.
        let _fuzz_guard = pgvn::oracle::silence_panic_hook();

        // Inner guard: serve_duplex takes its own for the session, and
        // drives panic-injected requests through catch_unwind.
        let opts = ServeOptions::default();
        let (client, server) = UnixStream::pair().expect("socketpair");
        let server_reader = server.try_clone().expect("server clone");
        let summary = std::thread::scope(|s| {
            let srv = s.spawn(|| serve_duplex(server_reader, server, &opts));
            let mut w = client.try_clone().expect("client clone");
            let mut r = client;
            for id in 1..=4u64 {
                let req = format!(
                    r#"{{"id":{id},"gen_seed":{id},"inject":"panic@eval","inject_seed":2002,"inject_sticky":true}}"#
                );
                write_frame(&mut w, req.as_bytes()).expect("write");
                let mut never = || false;
                match read_frame(&mut r, 1 << 24, &mut never) {
                    Ok(FrameEvent::Frame(p)) => {
                        let resp = String::from_utf8(p).expect("UTF-8");
                        assert!(resp.contains("\"reply\":\"record\""), "{resp}");
                    }
                    other => panic!("request unanswered: {other:?}"),
                }
            }
            w.shutdown(std::net::Shutdown::Write).expect("half-close");
            srv.join().expect("server thread")
        });
        assert!(
            summary.serve_metrics.value(Metric::ServeAbsorbedPanics) > 0,
            "injected panics were absorbed"
        );
        assert_eq!(summary.serve_metrics.value(Metric::ServeEscapedPanics), 0);
        assert_eq!(
            SENTINEL_CALLS.load(Ordering::SeqCst),
            0,
            "absorbed panics never reached the sentinel hook"
        );

        // The serve session is over but the outer fuzz guard is still
        // alive: the hook must still be silenced.
        let _ = std::panic::catch_unwind(|| panic!("still silent"));
        assert_eq!(
            SENTINEL_CALLS.load(Ordering::SeqCst),
            0,
            "dropping the inner guard must not restore the hook early"
        );
    }

    // Both guards dropped: the sentinel is back.
    let _ = std::panic::catch_unwind(|| panic!("audible again"));
    assert_eq!(
        SENTINEL_CALLS.load(Ordering::SeqCst),
        1,
        "dropping the last guard restores the saved hook"
    );
    let _ = std::panic::take_hook();
}
