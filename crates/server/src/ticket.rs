//! Job tickets: the waitable handles returned by [`crate::Client::submit`].
//!
//! A ticket is the client half of the async submission API. It is cheap to
//! clone and can be polled ([`JobTicket::status`], [`JobTicket::try_result`]),
//! blocked on ([`JobTicket::wait`]), or used to cancel a job that has not
//! started yet ([`JobTicket::cancel`]). Tickets stay valid after the server
//! shuts down: a drained ticket keeps its result, a cancelled one its error.

use std::sync::Arc;
use std::time::Duration;

use hmr_api::error::Result;
use hmr_api::job::JobResult;
use parking_lot::{Condvar, Mutex};

/// Lifecycle of a submitted job, as observed through its ticket.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker (or for upstream jobs it depends on).
    #[default]
    Queued,
    /// Executing on a lane of the shared places.
    Running,
    /// Finished successfully; the result is available.
    Completed,
    /// Finished with an error; the error is available.
    Failed,
    /// Cancelled before it started (by [`JobTicket::cancel`] or by
    /// `shutdown_now`); the typed error is available.
    Cancelled,
}

impl JobStatus {
    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }

    /// The lowercase name used in logs, reports and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Debug for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_terminal() {
            "terminal"
        } else {
            "non-terminal"
        };
        write!(f, "{} ({kind})", self.name())
    }
}

/// What [`JobTicket::wait_timeout`] observed when it returned.
#[derive(Debug)]
pub enum WaitOutcome {
    /// The job reached a terminal state within the deadline.
    Resolved(Result<JobResult>),
    /// The deadline passed first; carries the last-observed status so
    /// callers can report progress instead of a bare timeout error.
    TimedOut(JobStatus),
}

pub(crate) struct TicketState {
    pub(crate) status: JobStatus,
    pub(crate) result: Option<Result<JobResult>>,
}

/// Shared ticket cell; the scheduler resolves it, clients wait on it.
pub(crate) struct TicketInner {
    pub(crate) id: u64,
    pub(crate) client: String,
    pub(crate) state: Mutex<TicketState>,
    pub(crate) cv: Condvar,
}

impl TicketInner {
    pub(crate) fn new(id: u64, client: String) -> Arc<Self> {
        Arc::new(TicketInner {
            id,
            client,
            state: Mutex::new(TicketState {
                status: JobStatus::Queued,
                result: None,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn set_running(&self) {
        let mut st = self.state.lock();
        if st.status == JobStatus::Queued {
            st.status = JobStatus::Running;
        }
    }

    /// Move to a terminal state and publish the result; wakes all waiters.
    pub(crate) fn resolve(&self, status: JobStatus, result: Result<JobResult>) {
        debug_assert!(status.is_terminal());
        let mut st = self.state.lock();
        if st.status.is_terminal() {
            return;
        }
        st.status = status;
        st.result = Some(result);
        self.cv.notify_all();
    }
}

/// A waitable, pollable, cancellable handle to one submitted job.
///
/// Clones share the same underlying job. Dropping every ticket does *not*
/// cancel the job — the server runs it to completion regardless (the
/// fire-and-forget pattern).
#[derive(Clone)]
pub struct JobTicket {
    pub(crate) inner: Arc<TicketInner>,
    /// Server-side cancel hook: `canceller(id)` returns true iff the job
    /// was still queued and is now cancelled. Type-erased so tickets don't
    /// carry the engine type parameter.
    pub(crate) canceller: Arc<dyn Fn(u64) -> bool + Send + Sync>,
}

impl JobTicket {
    /// The server-assigned job id (admission order, starting at 1).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The submitting client's identity.
    pub fn client(&self) -> &str {
        &self.inner.client
    }

    /// Current lifecycle state (non-blocking).
    pub fn status(&self) -> JobStatus {
        self.inner.state.lock().status
    }

    /// The result, if the job already reached a terminal state
    /// (non-blocking poll).
    pub fn try_result(&self) -> Option<Result<JobResult>> {
        self.inner.state.lock().result.clone()
    }

    /// Block until the job reaches a terminal state and return its result
    /// — the async half of classic `JobClient.runJob` semantics.
    pub fn wait(&self) -> Result<JobResult> {
        let mut st = self.inner.state.lock();
        while st.result.is_none() {
            self.inner.cv.wait(&mut st);
        }
        st.result.clone().expect("loop exits only with a result")
    }

    /// Block until the job reaches a terminal state **or** `timeout`
    /// elapses. A timeout is not an error: the ticket stays valid and the
    /// returned [`WaitOutcome::TimedOut`] carries the last-observed
    /// status, so callers can distinguish "still queued behind the
    /// conflict DAG" from "running long".
    pub fn wait_timeout(&self, timeout: Duration) -> WaitOutcome {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        while st.result.is_none() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return WaitOutcome::TimedOut(st.status);
            }
            self.inner.cv.wait_for(&mut st, deadline - now);
        }
        WaitOutcome::Resolved(st.result.clone().expect("loop exits only with a result"))
    }

    /// Cancel the job if it has not started executing. Returns true when
    /// the cancellation won the race (the ticket then resolves to
    /// [`hmr_api::error::HmrError::Cancelled`]); false when the job is
    /// already running or finished — a started job always runs to
    /// completion, so shared cache state never reflects half a job.
    pub fn cancel(&self) -> bool {
        (self.canceller)(self.inner.id)
    }
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("id", &self.inner.id)
            .field("client", &self.inner.client)
            .field("status", &self.status())
            .finish()
    }
}
