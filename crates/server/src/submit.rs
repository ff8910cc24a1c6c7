//! Client handles and the submission builder.
//!
//! [`Client::submit`] is the redesigned client-facing API: it returns
//! immediately with a [`JobTicket`] instead of blocking for the result.
//! [`Client::submission`] opens a [`SubmissionBuilder`] for the knobs a
//! plain submit doesn't need — priority, a per-client cache quota, and
//! explicit dependencies on earlier tickets. Classic blocking
//! `JobClient.runJob` semantics are `submit(..)?.wait()`.

use std::sync::{Arc, Weak};

use hmr_api::conf::JobConf;
use hmr_api::error::{HmrError, Result};
use hmr_api::fs::HPath;
use hmr_api::job::{JobDef, LaneEngine};
use simgrid::Cluster;

use crate::scheduler::{admit, admit_memo_hit, memo_clear, RunFn, Shared};
use crate::ticket::{JobTicket, TicketInner};

/// A submission handle bound to one client identity. Clone freely; hand to
/// any thread. All clients of one server share the engine — and therefore
/// one cache and one set of long-lived places, so jobs submitted by
/// *different clients* still pipeline through memory.
pub struct Client<E: LaneEngine> {
    id: String,
    /// Weak so outstanding clients never block `shutdown(self) -> E` from
    /// unwrapping the engine; a dead upgrade is reported as
    /// [`HmrError::ServerShutdown`].
    engine: Weak<E>,
    shared: Arc<Shared<E>>,
    canceller: Arc<dyn Fn(u64) -> bool + Send + Sync>,
}

impl<E: LaneEngine> Clone for Client<E> {
    fn clone(&self) -> Self {
        Client {
            id: self.id.clone(),
            engine: self.engine.clone(),
            shared: Arc::clone(&self.shared),
            canceller: Arc::clone(&self.canceller),
        }
    }
}

impl<E: LaneEngine> Client<E> {
    pub(crate) fn new(
        id: String,
        engine: Weak<E>,
        shared: Arc<Shared<E>>,
        canceller: Arc<dyn Fn(u64) -> bool + Send + Sync>,
    ) -> Self {
        Client {
            id,
            engine,
            shared,
            canceller,
        }
    }

    /// This client's identity.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Submit a job asynchronously: the returned ticket can be polled,
    /// waited on, or cancelled while the server schedules the job onto the
    /// shared places (concurrently with other clients' independent jobs).
    pub fn submit<J: JobDef>(&self, job: Arc<J>, conf: &JobConf) -> Result<JobTicket> {
        self.submission().submit(job, conf)
    }

    /// Open a builder for a submission with explicit priority, cache
    /// quota, or dependencies.
    pub fn submission(&self) -> SubmissionBuilder<'_, E> {
        SubmissionBuilder {
            client: self,
            identity: None,
            priority: 0,
            cache_quota: None,
            after: Vec::new(),
        }
    }
}

/// Per-submission knobs: identity, priority, cache quota, dependencies.
pub struct SubmissionBuilder<'c, E: LaneEngine> {
    client: &'c Client<E>,
    identity: Option<String>,
    priority: i32,
    cache_quota: Option<u64>,
    after: Vec<u64>,
}

impl<E: LaneEngine> SubmissionBuilder<'_, E> {
    /// Submit under a different client identity than the handle's.
    pub fn client_id(mut self, client: &str) -> Self {
        self.identity = Some(client.to_string());
        self
    }

    /// Dispatch priority among *ready* jobs: higher runs first; ties go to
    /// admission order. Default 0. Priority never overtakes a conflict
    /// edge — a dependent job waits regardless.
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Cap this client's resident cache bytes (across all places). Applied
    /// to the engine's governed cache at submit time; over-quota tenants
    /// are evicted first (spilled, or refused under fail-fast). Engines
    /// without a governed cache ignore it.
    pub fn cache_quota(mut self, bytes: u64) -> Self {
        self.cache_quota = Some(bytes);
        self
    }

    /// Require `ticket`'s job to resolve before this one starts, even if
    /// their footprints don't overlap (e.g. ordering side effects the
    /// scheduler can't see).
    pub fn after(mut self, ticket: &JobTicket) -> Self {
        self.after.push(ticket.id());
        self
    }

    /// Admit the job and return its ticket.
    pub fn submit<J: JobDef>(self, job: Arc<J>, conf: &JobConf) -> Result<JobTicket> {
        let client = self
            .identity
            .unwrap_or_else(|| self.client.id.clone());
        let engine = self.client.engine.upgrade().ok_or_else(|| {
            HmrError::ServerShutdown("the m3r server is down".to_string())
        })?;

        // Stamp the identity so engine-side cache puts are attributed to
        // this tenant.
        let mut conf = conf.clone();
        conf.set_client_id(&client);
        let footprint = footprint_of(&conf);

        let flight = &self.client.shared.flight;
        let t_submit = flight.now_ns();
        let mut st = self.client.shared.state.lock();
        let t_locked = flight.now_ns();
        if !st.accepting {
            return Err(HmrError::ServerShutdown(
                "the m3r server is shutting down".to_string(),
            ));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        if let Some(q) = self.cache_quota {
            engine.set_client_quota(&client, Some(q));
        }

        // Pre-admission memoization stage (ISSUE 10): when nothing
        // unresolved overlaps this job's footprint (an in-flight writer
        // could still be producing our inputs or holding our output
        // directory) and no explicit dependency is outstanding, ask the
        // engine for a whole-job memo replay. A hit resolves the ticket
        // right here — no DAG edges, no worker, no lane. It runs under
        // the admission lock, so the replay's trace job and output writes
        // land in admission order, exactly like a serialized schedule.
        if memo_clear(&st, &footprint, &self.after) {
            if let Some(result) = engine.try_memo_replay(&job, &conf) {
                let ticket = TicketInner::new(seq, client.clone());
                flight.record_submitted(
                    seq,
                    &client,
                    conf.job_name(),
                    self.priority,
                    0,
                    t_submit,
                    t_locked,
                    flight.now_ns(),
                );
                flight.record_memo_hit(seq);
                admit_memo_hit(&mut st, flight, seq, footprint, Arc::clone(&ticket), result);
                drop(st);
                self.client.shared.cv.notify_all();
                return Ok(JobTicket {
                    inner: ticket,
                    canceller: Arc::clone(&self.client.canceller),
                });
            }
        }

        // Register the trace job id under the admission lock so trace ids
        // follow seq order — the rollup is then schedule-independent.
        let tjob = st.home.trace().register_job(format_args!(
            "{} ({})",
            conf.job_name(),
            engine.engine_name()
        ));
        let ticket = TicketInner::new(seq, client.clone());
        let job_name = conf.job_name().to_string();
        let priority = self.priority;
        let run: RunFn<E> = Box::new(move |engine: &E, lane: &Cluster| {
            engine.run_lane(lane, seq, job, &conf)
        });
        let deps = admit(
            &mut st,
            seq,
            priority,
            tjob,
            footprint,
            &self.after,
            run,
            Arc::clone(&ticket),
        );
        // Record under the admission lock so no lifecycle event for this
        // seq can land before its submission does.
        flight.record_submitted(
            seq,
            &client,
            &job_name,
            priority,
            deps,
            t_submit,
            t_locked,
            flight.now_ns(),
        );
        drop(st);
        self.client.shared.cv.notify_all();
        Ok(JobTicket {
            inner: ticket,
            canceller: Arc::clone(&self.client.canceller),
        })
    }
}

/// The set of paths a job touches, as visible from its configuration:
/// inputs, the output directory, and distributed-cache files.
fn footprint_of(conf: &JobConf) -> Vec<HPath> {
    let mut fp = conf.input_paths();
    if let Some(out) = conf.output_path() {
        fp.push(out);
    }
    fp.extend(conf.cache_files());
    fp
}
