//! Offline stand-in for `crossbeam`.
//!
//! No code uses it any more (the engine's pipelined executor, whose
//! channels it carried, is gone); it stays until `seco-engine`'s edge
//! to it can be dropped with the next change to `benchmark/`, whose
//! lock file lists it. It offers bounded channels with
//! blocking send, iterator-style receive, and `Clone` on both halves;
//! `std::sync::mpsc::sync_channel` provides the transport and a
//! mutex shares the receiving half between clones. (Crossbeam's real
//! channels are lock-free MPMC — irrelevant here because every plan
//! arc has one producer and one consumer.)

/// Channel types and constructors (the `crossbeam::channel` module).
pub mod channel {
    use std::sync::{mpsc, Arc, Mutex};

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half of a bounded channel.
    #[derive(Debug, Clone)]
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    impl<T> Sender<T> {
        /// Blocks until the value is queued; errors when the receiver
        /// hung up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }
    }

    /// Receiving half of a bounded channel. Clones share one queue:
    /// each message is delivered to exactly one clone.
    #[derive(Debug, Clone)]
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; errors when all senders hung up.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).recv()
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .try_recv()
        }

        /// Blocking iterator that ends when all senders hang up.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Borrowing iterator over received values.
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// Owning iterator over received values.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    /// Creates a bounded channel with the given capacity.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap.max(1));
        (
            Sender { inner: tx },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn send_receive_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        handle.join().unwrap();
    }

    #[test]
    fn hung_up_receiver_fails_send() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn cloned_senders_all_feed_the_receiver() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        let mut got: Vec<i32> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn cloned_receivers_share_one_queue() {
        let (tx, rx) = bounded(4);
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!((a, b), (1, 2));
        assert!(rx.recv().is_err());
    }
}
