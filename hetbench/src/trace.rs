//! The traced run: timing decorators around the program's public traits
//! and the counters they feed.
//!
//! Every decorator forwards to the real implementation and records the
//! call's wall time on a named [`Span`]. Spans are timed on the calling
//! thread, and each thread keeps a running total of the child spans it
//! has timed, so an enclosing call measured with [`timed_self`] can
//! report its self time: its own duration minus what its children took
//! on the same thread. Nothing inside the program changes.

use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_middleware::security::{Decision, MiddlewareError, MiddlewareSecurity};
use hetsec_rbac::{
    Domain, ObjectType, Permission, PermissionGrant, RbacPolicy, Role, RoleAssignment, User,
};
use hetsec_translate::{AdmissionFinding, AdmissionGate, PolicyChange};
use hetsec_webcom::{
    AuthzContext, AuthzLayer, ClientTransport, ComponentExecutor, ExecError, LayerLevel, PeerLink,
    ScheduleReply, ScheduleRequest, TransportError, Verdict, WireRequest,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Accumulated time and call count at one boundary.
#[derive(Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    fn record(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            return 0.0;
        }
        self.ns.load(Ordering::Relaxed) as f64 / calls as f64 / 1e3
    }

    fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }

    fn absorb(&self, other: &Span) {
        self.ns
            .fetch_add(other.ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.calls.fetch_add(other.calls(), Ordering::Relaxed);
    }
}

thread_local! {
    /// Nanoseconds of child spans timed on this thread so far.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Times `f` on `span` and charges the time to this thread's child
/// account, so an enclosing [`timed_self`] excludes it.
pub fn timed<R>(span: &Span, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let d = t0.elapsed();
    span.record(d);
    CHILD_NS.with(|c| c.set(c.get() + d.as_nanos() as u64));
    out
}

/// Times `f` and records on `span` only its self time: the duration
/// minus the child spans timed on this thread meanwhile. The whole
/// duration is charged to any enclosing span as child time.
pub fn timed_self<R>(span: &Span, f: impl FnOnce() -> R) -> R {
    let before = CHILD_NS.with(|c| c.get());
    let t0 = Instant::now();
    let out = f();
    let d = t0.elapsed();
    let children = CHILD_NS.with(|c| c.get()) - before;
    span.record(d.saturating_sub(Duration::from_nanos(children)));
    CHILD_NS.with(|c| c.set(before + d.as_nanos() as u64));
    out
}

/// Requests kept for the after-run codec measurement: one in
/// [`CAPTURE_EVERY`], at most [`CAPTURE_MAX`].
const CAPTURE_EVERY: u64 = 8;
const CAPTURE_MAX: usize = 512;

/// Every per-layer boundary the traced run measures.
#[derive(Default)]
pub struct Tracer {
    pub master_self: Span,
    pub transport_call: Span,
    pub forward: Span,
    pub os: Span,
    pub middleware: Span,
    pub trust: Span,
    pub app: Span,
    /// Requests seen by the stack layers (a batch of n counts n).
    layer_requests: AtomicU64,
    pub executor: Span,
    pub keycom: Span,
    pub gate: Span,
    pub bus_self: Span,
    pub endpoint_update: Span,
    pub endpoint_export: Span,
    wire_seen: AtomicU64,
    captured: Mutex<Vec<ScheduleRequest>>,
}

/// Codec cost of the captured requests, measured after the run with the
/// program's public `encode_frame`/`decode_frame`.
pub struct WireCost {
    pub mean_bytes: f64,
    pub encode_us: f64,
    pub decode_us: f64,
}

impl Tracer {
    fn spans(&self) -> [&Span; 13] {
        [
            &self.master_self,
            &self.transport_call,
            &self.forward,
            &self.os,
            &self.middleware,
            &self.trust,
            &self.app,
            &self.executor,
            &self.keycom,
            &self.gate,
            &self.bus_self,
            &self.endpoint_update,
            &self.endpoint_export,
        ]
    }

    /// Zeroes every span and drops captured requests, so set-up and
    /// warm-up traffic do not count toward the measured phase.
    pub fn reset(&self) {
        for s in self.spans() {
            s.reset();
        }
        self.layer_requests.store(0, Ordering::Relaxed);
        self.wire_seen.store(0, Ordering::Relaxed);
        self.captured.lock().expect("capture lock").clear();
    }

    /// Adds another tracer's spans, counts and captured requests.
    pub fn absorb(&self, other: &Tracer) {
        for (mine, theirs) in self.spans().into_iter().zip(other.spans()) {
            mine.absorb(theirs);
        }
        self.layer_requests
            .fetch_add(other.layer_requests(), Ordering::Relaxed);
        let theirs = other.captured.lock().expect("capture lock");
        let mut mine = self.captured.lock().expect("capture lock");
        let room = CAPTURE_MAX.saturating_sub(mine.len());
        mine.extend(theirs.iter().take(room).cloned());
    }

    pub fn layer_requests(&self) -> u64 {
        self.layer_requests.load(Ordering::Relaxed)
    }

    fn capture(&self, request: &ScheduleRequest) {
        let n = self.wire_seen.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(CAPTURE_EVERY) {
            let mut captured = self.captured.lock().expect("capture lock");
            if captured.len() < CAPTURE_MAX {
                captured.push(request.clone());
            }
        }
    }

    /// Encodes and decodes every captured request as the `Schedule`
    /// frame a TCP transport sends.
    pub fn wire_cost(&self) -> WireCost {
        let captured = self.captured.lock().expect("capture lock");
        if captured.is_empty() {
            return WireCost {
                mean_bytes: 0.0,
                encode_us: 0.0,
                decode_us: 0.0,
            };
        }
        let (mut bytes, mut enc, mut dec) = (0usize, Duration::ZERO, Duration::ZERO);
        for req in captured.iter() {
            let frame = WireRequest::Schedule(Box::new(req.clone()));
            let t0 = Instant::now();
            let encoded = hetsec_webcom::encode_frame(&frame).expect("captured request encodes");
            enc += t0.elapsed();
            let t1 = Instant::now();
            let decoded: WireRequest =
                hetsec_webcom::decode_frame(&encoded).expect("captured request decodes");
            dec += t1.elapsed();
            assert_eq!(decoded, frame, "codec round trip changed a request");
            bytes += encoded.len();
        }
        let n = captured.len() as f64;
        WireCost {
            mean_bytes: bytes as f64 / n,
            encode_us: enc.as_secs_f64() * 1e6 / n,
            decode_us: dec.as_secs_f64() * 1e6 / n,
        }
    }
}

/// Which span a stack layer's decorator feeds.
#[derive(Clone, Copy)]
pub enum LayerSpan {
    Os,
    Middleware,
    Trust,
    App,
}

/// Times an [`AuthzLayer`]'s decisions. Forwards `epoch` unchanged, so
/// the stack cache behaves exactly as without the decorator.
pub struct TracedLayer {
    pub inner: Arc<dyn AuthzLayer>,
    pub span: LayerSpan,
    pub tracer: Arc<Tracer>,
}

impl TracedLayer {
    fn span(&self) -> &Span {
        match self.span {
            LayerSpan::Os => &self.tracer.os,
            LayerSpan::Middleware => &self.tracer.middleware,
            LayerSpan::Trust => &self.tracer.trust,
            LayerSpan::App => &self.tracer.app,
        }
    }
}

impl AuthzLayer for TracedLayer {
    fn level(&self) -> LayerLevel {
        self.inner.level()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        self.tracer.layer_requests.fetch_add(1, Ordering::Relaxed);
        timed(self.span(), || self.inner.decide(ctx))
    }

    fn decide_batch(&self, ctxs: &[&AuthzContext]) -> Vec<Verdict> {
        self.tracer
            .layer_requests
            .fetch_add(ctxs.len() as u64, Ordering::Relaxed);
        timed(self.span(), || self.inner.decide_batch(ctxs))
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// Times a master's calls to one client, and keeps a sample of the
/// requests when the client is reached over a socket.
pub struct TracedTransport {
    pub inner: Arc<dyn ClientTransport>,
    pub capture: bool,
    pub tracer: Arc<Tracer>,
}

impl ClientTransport for TracedTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        if self.capture {
            self.tracer.capture(request);
        }
        timed(&self.tracer.transport_call, || {
            self.inner.call(request, timeout)
        })
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Times a master's forwards to a peer shard.
pub struct TracedPeer {
    pub inner: Arc<dyn PeerLink>,
    pub tracer: Arc<Tracer>,
}

impl PeerLink for TracedPeer {
    fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        timed(&self.tracer.forward, || {
            self.inner.forward(request, hops, timeout)
        })
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Times a client's component invocations.
pub struct TracedExecutor {
    pub inner: Arc<dyn ComponentExecutor>,
    pub tracer: Arc<Tracer>,
}

impl ComponentExecutor for TracedExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        timed(&self.tracer.executor, || {
            self.inner.invoke(user, component, args)
        })
    }
}

/// Times the policy bus's admission reviews.
pub struct TracedGate {
    pub inner: Arc<dyn AdmissionGate>,
    pub tracer: Arc<Tracer>,
}

impl AdmissionGate for TracedGate {
    fn review(&self, current: &RbacPolicy, candidate: &RbacPolicy) -> Vec<AdmissionFinding> {
        timed(&self.tracer.gate, || self.inner.review(current, candidate))
    }

    fn review_delta(
        &self,
        current: &RbacPolicy,
        candidate: &RbacPolicy,
        change: &PolicyChange,
    ) -> Vec<AdmissionFinding> {
        timed(&self.tracer.gate, || {
            self.inner.review_delta(current, candidate, change)
        })
    }
}

/// Times a middleware endpoint's row updates and policy exports. Access
/// checks pass through untimed: the stack's layer decorator times them.
pub struct TracedEndpoint {
    pub inner: Arc<dyn MiddlewareSecurity>,
    pub tracer: Arc<Tracer>,
}

impl MiddlewareSecurity for TracedEndpoint {
    fn kind(&self) -> MiddlewareKind {
        self.inner.kind()
    }

    fn instance_name(&self) -> String {
        self.inner.instance_name()
    }

    fn owned_domains(&self) -> Vec<Domain> {
        self.inner.owned_domains()
    }

    fn export_policy(&self) -> RbacPolicy {
        timed(&self.tracer.endpoint_export, || self.inner.export_policy())
    }

    fn grant(&self, grant: &PermissionGrant) -> Result<(), MiddlewareError> {
        timed(&self.tracer.endpoint_update, || self.inner.grant(grant))
    }

    fn revoke(&self, grant: &PermissionGrant) -> Result<(), MiddlewareError> {
        timed(&self.tracer.endpoint_update, || self.inner.revoke(grant))
    }

    fn assign(&self, assignment: &RoleAssignment) -> Result<(), MiddlewareError> {
        timed(&self.tracer.endpoint_update, || {
            self.inner.assign(assignment)
        })
    }

    fn unassign(&self, assignment: &RoleAssignment) -> Result<(), MiddlewareError> {
        timed(&self.tracer.endpoint_update, || {
            self.inner.unassign(assignment)
        })
    }

    fn check(
        &self,
        user: &User,
        domain: &Domain,
        role: Option<&Role>,
        object_type: &ObjectType,
        permission: &Permission,
    ) -> Decision {
        self.inner
            .check(user, domain, role, object_type, permission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_on_the_same_thread() {
        let parent = Span::default();
        let child = Span::default();
        timed_self(&parent, || {
            timed(&child, || std::thread::sleep(Duration::from_millis(20)));
        });
        assert_eq!(parent.calls(), 1);
        assert_eq!(child.calls(), 1);
        assert!(child.mean_us() >= 20_000.0);
        assert!(parent.mean_us() < 10_000.0, "self {}", parent.mean_us());
    }
}
