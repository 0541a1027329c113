//! Asynchronous proactive-unload worker.
//!
//! The proactive unload "is executed asynchronously, meaning that it does
//! not block the creation of new paged attribute resources" (paper §5). The
//! manager sends a wake-up whenever the paged pool crosses the upper limit;
//! the worker then evicts LRU until the lower limit is reached. Between the
//! wake-up and the pass completing, the pool may exceed the upper limit —
//! that transient overshoot is intended and tested.

use crate::manager::Inner;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Weak;
use std::thread::JoinHandle;

pub(crate) enum Msg {
    /// The paged pool crossed the upper limit: run a pass.
    Wake,
    /// Test/experiment barrier: reply once all prior messages are processed.
    Quiesce(Sender<()>),
}

pub(crate) struct ProactiveWorker {
    tx: Sender<Msg>,
    _handle: JoinHandle<()>,
}

impl ProactiveWorker {
    pub(crate) fn spawn(inner: Weak<Inner>) -> Self {
        let (tx, rx) = channel();
        let handle = std::thread::Builder::new()
            .name("payg-proactive-unload".into())
            .spawn(move || run(inner, rx))
            // lint: allow(unwrap) thread spawn fails only on OS resource exhaustion
            .expect("spawn proactive unload worker");
        ProactiveWorker { tx, _handle: handle }
    }

    pub(crate) fn wake(&self) {
        // A backlog of pending wakes collapses into one pass anyway;
        // failure means the worker is gone (manager dropped), which is fine.
        let _ = self.tx.send(Msg::Wake);
    }

    pub(crate) fn quiesce(&self) {
        let (ack_tx, ack_rx) = channel();
        if self.tx.send(Msg::Quiesce(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }
}

fn run(inner: Weak<Inner>, rx: Receiver<Msg>) {
    // Exits when the manager is dropped (sender closed or upgrade fails).
    while let Ok(msg) = rx.recv() {
        let mut run_pass = false;
        let mut acks: Vec<Sender<()>> = Vec::new();
        match msg {
            Msg::Wake => run_pass = true,
            Msg::Quiesce(ack) => acks.push(ack),
        }
        // Coalesce bursts of wake-ups into a single pass; collect quiesce
        // barriers so their acks are sent only after the pass completes.
        loop {
            match rx.try_recv() {
                Ok(Msg::Wake) => run_pass = true,
                Ok(Msg::Quiesce(ack)) => acks.push(ack),
                Err(_) => break,
            }
        }
        if run_pass {
            let Some(inner) = inner.upgrade() else { return };
            inner.proactive_pass();
        }
        for ack in acks {
            let _ = ack.send(());
        }
    }
}
