//! `admin_churn`: the paper's §4.1/§4.4 administration path under load.
//! Each op is one role-membership change sent to KeyCom as a
//! `PolicyUpdateRequest` that re-presents the requester's signed admin
//! delegation. KeyCom hands the authorised change to a `PolicyBus` whose
//! `LintAdmissionGate` reviews it before the bus fans it out to the
//! COM+, EJB and CORBA endpoints. The op then reads back one decision
//! through a cached heterogeneous stack over those same endpoints,
//! probing a request the stack decided before the change.
//!
//! A round is five ops: assign this round's fresh membership (one
//! user's vacant membership, cycling over the users in seeded order);
//! unassign a fixed sentinel membership whose probe the stack granted
//! before; grant a role a component it lacks (cycling over every such
//! pair in seeded order); unassign the previous round's fresh
//! membership; restore the sentinel. Carrying one fresh membership
//! across the round boundary means no change's candidate policy repeats
//! one the gate reviewed just before. The sentinel rotates over the
//! three middlewares from round to round.
//!
//! Two program faults are counted as failed ops, each in every round:
//! * The middleware and OS layers never move `AuthzLayer::epoch`, so
//!   after the sentinel is unassigned the stack cache still serves the
//!   old grant; restoring the sentinel mends it.
//! * `LintAdmissionGate` rejects every grant with an `HS015`
//!   grant-widening finding, so the grant never lands.
//!
//! Revocations are left out of the change mix: with every grant
//! rejected, a revoked row could not be restored, and the state would
//! drift from round to round.

use crate::env::{layer, Spec, World};
use crate::harness::{Check, Counters, Run, SetupPhases, Workload};
use crate::model::{Assignment, Component, Grant, Layers, Rows, Tables};
use crate::rng::Rng;
use crate::trace::{timed, timed_self, LayerSpan, TracedEndpoint, TracedGate, Tracer};
use hetsec_analyze::LintAdmissionGate;
use hetsec_crypto::KeyPair;
use hetsec_keynote::{sign_assertion, Assertion, LicenseeExpr, Principal};
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_middleware::security::{Decision, MiddlewareError, MiddlewareSecurity};
use hetsec_rbac::{
    Domain, ObjectType, Permission, PermissionGrant, RbacPolicy, Role, RoleAssignment, User,
};
use hetsec_translate::{AdmissionFinding, AdmissionGate, PolicyBus, PolicyChange};
use hetsec_webcom::{
    ApplicationLayer, AuthzContext, AuthzLayer, AuthzStack, KeyComService, MiddlewareLayer,
    PolicyUpdateRequest, ScheduledAction, TrustLayer, TrustManager, UnixOsLayer, WindowsOsLayer,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The environment is the same for every run seed. The gate's review
/// time depends on the lexical order of the principal names: two
/// renamings of one policy shape differ by up to a fifth. The run seed
/// orders the fresh memberships instead.
const SHAPE_SEED: u64 = 0x5EED;
/// A smaller environment than `hetero_stack`'s: the admission gate
/// re-analyses the whole encoded policy on every change, and its cost
/// grows faster than the policy.
const SPEC: Spec = Spec {
    users: 12,
    roles: 3,
    objects: 3,
    grants_per_role: 3,
};
const STACK_CACHE: usize = 1024;
const REQUESTER: &str = "Kops";
const ALL_LAYERS: Layers = Layers {
    windows_os: true,
    unix_os: true,
    com: true,
    ejb: true,
    corba: true,
};

/// A read-back request.
#[derive(Clone)]
struct Probe {
    user: String,
    role: String,
    component: Component,
}

impl Probe {
    fn context(&self) -> AuthzContext {
        AuthzContext::new(
            self.user.as_str(),
            format!("K{}", self.user),
            ScheduledAction::new(
                World::component_ref(&self.component),
                self.component.domain.as_str(),
                self.role.as_str(),
            ),
        )
    }
}

/// A membership and the request that probes it: the member acting in
/// the role on a component the role is granted.
struct Membership {
    row: RoleAssignment,
    probe: Probe,
}

/// A row change and the request it probes.
struct Step {
    change: PolicyChange,
    probe: Probe,
}

/// A grant a role lacks and the request it probes: a member of the
/// role on the component.
struct Candidate {
    row: PermissionGrant,
    probe: Probe,
}

/// Step `pos` (0..5) of a round.
fn step_at(
    fresh: &Membership,
    previous: &Membership,
    sentinel: &Membership,
    grant: &Candidate,
    pos: u64,
) -> Step {
    let (change, probe) = match pos {
        0 => (PolicyChange::Assign(fresh.row.clone()), &fresh.probe),
        1 => (
            PolicyChange::Unassign(sentinel.row.clone()),
            &sentinel.probe,
        ),
        2 => (PolicyChange::Grant(grant.row.clone()), &grant.probe),
        3 => (
            PolicyChange::Unassign(previous.row.clone()),
            &previous.probe,
        ),
        _ => (PolicyChange::Assign(sentinel.row.clone()), &sentinel.probe),
    };
    Step {
        change,
        probe: probe.clone(),
    }
}

fn assignment_row(a: &RoleAssignment) -> Assignment {
    (a.user.to_string(), a.domain.to_string(), a.role.to_string())
}

fn grant_row(g: &PermissionGrant) -> Grant {
    (
        g.domain.to_string(),
        g.role.to_string(),
        g.object_type.to_string(),
        g.permission.to_string(),
    )
}

/// Applies a change to the model's rows.
fn replay(rows: &mut Rows, change: &PolicyChange) {
    match change {
        PolicyChange::Assign(a) => {
            rows.assignments.insert(assignment_row(a));
        }
        PolicyChange::Unassign(a) => {
            rows.assignments.remove(&assignment_row(a));
        }
        PolicyChange::Grant(g) => {
            rows.grants.insert(grant_row(g));
        }
        PolicyChange::Revoke(g) => {
            rows.grants.remove(&grant_row(g));
        }
    }
}

/// Adds one fixed sentinel member per middleware to the world, each in
/// role `Sentinel` with one granted component no OS layer mediates.
/// Nothing about them depends on the seed.
fn add_sentinels(world: &mut World) -> Vec<Membership> {
    let d = world.domains.clone();
    let components = [
        Component::new(MiddlewareKind::ComPlus, &d[0], "SentinelApp", "SentinelSvc"),
        Component::new(MiddlewareKind::Ejb, &d[1], "SentinelBean", "read"),
        Component::new(MiddlewareKind::Corba, &d[2], "SentinelIf", "query"),
    ];
    let mut out = Vec::new();
    for (i, c) in components.into_iter().enumerate() {
        let user = format!("sentinel{i}");
        let row = (user.clone(), c.domain.clone(), "Sentinel".to_string());
        let grant = (
            c.domain.clone(),
            "Sentinel".to_string(),
            c.object.clone(),
            c.permission.clone(),
        );
        for rows in [&mut world.tables.trust, &mut world.tables.middleware] {
            rows.assignments.insert(row.clone());
            rows.grants.insert(grant.clone());
        }
        world
            .tables
            .key_owner
            .insert(format!("K{user}"), user.clone());
        world.components.push(c.clone());
        out.push(Membership {
            row: RoleAssignment::new(row.0.as_str(), row.1.as_str(), row.2.as_str()),
            probe: Probe {
                user,
                role: row.2,
                component: c,
            },
        });
    }
    out
}

/// The fresh memberships: each user's vacant membership (see
/// [`World::vacant`]), probed on a component its role is granted. Their
/// probes are denied before and after the change: the trust layer
/// encodes the initial policy, which does not license them.
fn fresh_memberships(world: &World) -> Vec<Membership> {
    let rows = &world.tables.middleware;
    world
        .vacant
        .iter()
        .map(|(user, domain, role)| {
            let (_, _, object, permission) = rows
                .grants
                .iter()
                .find(|g| &g.0 == domain && &g.1 == role)
                .expect("every role is granted a component");
            let component = world
                .components
                .iter()
                .find(|c| &c.domain == domain && &c.object == object && &c.permission == permission)
                .expect("every grant names a component")
                .clone();
            Membership {
                row: RoleAssignment::new(user.as_str(), domain.as_str(), role.as_str()),
                probe: Probe {
                    user: user.clone(),
                    role: role.clone(),
                    component,
                },
            }
        })
        .collect()
}

/// Every (role, component) pair of the regular roles that the policy
/// does not grant, each probed by a member whose membership no change
/// touches. The probe is denied before and after the grant: the trust
/// layer encodes the initial policy, which does not license it.
fn grant_candidates(world: &World) -> Vec<Candidate> {
    let rows = &world.tables.middleware;
    let mut members: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    for (user, domain, role) in &rows.assignments {
        members.entry((domain, role)).or_insert(user);
    }
    let mut out = Vec::new();
    for ((domain, role), user) in members {
        for c in world.components.iter().filter(|c| c.domain == domain) {
            let grant = (
                domain.to_string(),
                role.to_string(),
                c.object.clone(),
                c.permission.clone(),
            );
            if rows.grants.contains(&grant) {
                continue;
            }
            out.push(Candidate {
                row: PermissionGrant::new(domain, role, c.object.as_str(), c.permission.as_str()),
                probe: Probe {
                    user: user.to_string(),
                    role: role.to_string(),
                    component: c.clone(),
                },
            });
        }
    }
    out
}

/// KeyCom's target: the policy bus, seen as one middleware instance
/// spanning every domain. Updates go through `PolicyBus::apply`; a
/// change the gate rejects, an endpoint fails, or that leaves an
/// endpoint inconsistent is reported to KeyCom as an error. The gate's
/// findings on the last change it rejected are kept for the op's check.
struct BusTarget {
    bus: Arc<PolicyBus>,
    domains: Vec<Domain>,
    rejected: Mutex<Vec<AdmissionFinding>>,
    tracer: Option<Arc<Tracer>>,
}

impl BusTarget {
    fn apply(&self, change: PolicyChange) -> Result<(), MiddlewareError> {
        let report = match &self.tracer {
            Some(t) => timed_self(&t.bus_self, || self.bus.apply(&change)),
            None => self.bus.apply(&change),
        };
        *self.rejected.lock().expect("rejection lock") = report.rejected.clone();
        if !report.admitted() || !report.failures.is_empty() || !report.is_consistent() {
            return Err(MiddlewareError::NotFound(format!(
                "bus did not land {change:?}: rejected {:?}, failures {:?}, inconsistent {:?}",
                report.rejected,
                report.failures,
                report.inconsistent_endpoints()
            )));
        }
        Ok(())
    }

    /// Whether the gate rejected the last change only for widening a
    /// grant (`HS015`), the known fault.
    fn rejected_as_widening(&self) -> bool {
        let rejected = self.rejected.lock().expect("rejection lock");
        !rejected.is_empty() && rejected.iter().all(|f| f.code == "HS015")
    }
}

impl MiddlewareSecurity for BusTarget {
    /// KeyCom never asks; the bus spans all three kinds.
    fn kind(&self) -> MiddlewareKind {
        MiddlewareKind::ComPlus
    }

    fn instance_name(&self) -> String {
        "policy-bus".to_string()
    }

    fn owned_domains(&self) -> Vec<Domain> {
        self.domains.clone()
    }

    fn export_policy(&self) -> RbacPolicy {
        self.bus.unified()
    }

    fn grant(&self, g: &PermissionGrant) -> Result<(), MiddlewareError> {
        self.apply(PolicyChange::Grant(g.clone()))
    }

    fn revoke(&self, g: &PermissionGrant) -> Result<(), MiddlewareError> {
        self.apply(PolicyChange::Revoke(g.clone()))
    }

    fn assign(&self, a: &RoleAssignment) -> Result<(), MiddlewareError> {
        self.apply(PolicyChange::Assign(a.clone()))
    }

    fn unassign(&self, a: &RoleAssignment) -> Result<(), MiddlewareError> {
        self.apply(PolicyChange::Unassign(a.clone()))
    }

    fn check(
        &self,
        _: &User,
        _: &Domain,
        _: Option<&Role>,
        _: &ObjectType,
        _: &Permission,
    ) -> Decision {
        Decision::denied("the policy bus is an administration target, not a mediator")
    }
}

pub struct Env {
    keycom: KeyComService,
    target: Arc<BusTarget>,
    credential: Assertion,
    admin_trust: Arc<TrustManager>,
    bus: Arc<PolicyBus>,
    /// The endpoints as built, read directly by the final-state check.
    endpoints: Vec<Arc<dyn MiddlewareSecurity>>,
    stack: AuthzStack,
    /// The same layers without the stack cache, to confirm a stale
    /// read-back is the cache's doing.
    uncached: AuthzStack,
    trust: Arc<TrustManager>,
    fresh: Vec<Membership>,
    sentinels: Vec<Membership>,
    candidates: Vec<Candidate>,
    /// The benchmark's replay of every change applied so far.
    model: Mutex<Tables>,
    tracer: Option<Arc<Tracer>>,
}

impl Env {
    /// Sends one change to KeyCom and reads its probe back through the
    /// cached stack; returns the read-back verdict and the time taken.
    fn step(&self, step: &Step) -> (Result<(), String>, bool, Duration) {
        let request = PolicyUpdateRequest {
            requester: REQUESTER.to_string(),
            credentials: vec![self.credential.clone()],
            change: step.change.clone(),
        };
        let ctx = step.probe.context();
        let t0 = Instant::now();
        let handled = match &self.tracer {
            Some(t) => timed(&t.keycom, || self.keycom.handle(&request)),
            None => self.keycom.handle(&request),
        };
        let permitted = self.stack.decide(&ctx).permitted;
        let took = t0.elapsed();
        (handled.map_err(|e| e.to_string()), permitted, took)
    }

    fn expect(&self, model: &Tables, probe: &Probe) -> bool {
        let principal = format!("K{}", probe.user);
        model.permits(
            ALL_LAYERS,
            &probe.user,
            &principal,
            &probe.role,
            &probe.component,
        )
    }

    fn all_probes(&self) -> Vec<&Probe> {
        self.sentinels
            .iter()
            .chain(&self.fresh)
            .map(|m| &m.probe)
            .chain(self.candidates.iter().map(|c| &c.probe))
            .collect()
    }
}

pub struct AdminChurn;

impl Workload for AdminChurn {
    const CALLERS: usize = 1;
    const ROUND: u64 = 5;
    /// 500 ops: five lie beyond a segment's p99 (about forty beyond the
    /// run's), but a 30 s run has six or more segments, enough for the
    /// median over segments to pass over a slow spell.
    const SEGMENT_OPS: u64 = 500;
    type Env = Env;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>) -> (Env, SetupPhases) {
        let t0 = Instant::now();
        let mut world = World::generate(SHAPE_SEED, SPEC);
        let mut fresh = fresh_memberships(&world);
        Rng::new(seed, 0xF2E5).shuffle(&mut fresh);
        let mut candidates = grant_candidates(&world);
        Rng::new(seed, 0x6A47).shuffle(&mut candidates);
        let sentinels = add_sentinels(&mut world);
        let trust = world.trust_manager();
        // The first round unassigns the last fresh membership, so the
        // endpoints start with it (the trust layer does not license it).
        let last = &fresh[fresh.len() - 1].row;
        world.tables.middleware.assignments.insert((
            last.user.to_string(),
            last.domain.to_string(),
            last.role.to_string(),
        ));
        let policy = World::policy(&world.tables.middleware);
        let store = t0.elapsed();

        // The administrator's authority: POLICY licenses the admin key,
        // which signs a delegation to the requester.
        let t1 = Instant::now();
        let admin = KeyPair::from_label("hetbench-admin");
        let admin_key = admin.public().to_text();
        let admin_trust = TrustManager::strict();
        admin_trust
            .add_policy(&format!(
                "Authorizer: POLICY\nLicensees: \"{admin_key}\"\n\
                 Conditions: app_domain==\"WebCom\" && oper==\"administer\";\n"
            ))
            .expect("admin policy parses");
        let admin_trust = Arc::new(admin_trust);
        let mut credential = Assertion::new(
            Principal::key(admin_key),
            LicenseeExpr::Principal(REQUESTER.to_string()),
        );
        sign_assertion(&mut credential, &admin).expect("admin delegation signs");
        let sign = t1.elapsed();

        // Commission the endpoints through the bus, then build the
        // read-back stacks over the same endpoints.
        let t2 = Instant::now();
        let bus = Arc::new(PolicyBus::with_policy(policy));
        let gate: Arc<dyn AdmissionGate> = Arc::new(LintAdmissionGate::new().with_now(1.0e9));
        bus.set_gate(match &tracer {
            Some(t) => Arc::new(TracedGate {
                inner: Arc::clone(&gate),
                tracer: Arc::clone(t),
            }),
            None => Arc::clone(&gate),
        });
        let ep = world.endpoints();
        let raw: [Arc<dyn MiddlewareSecurity>; 3] =
            [ep.com.clone(), ep.ejb.clone(), ep.corba.clone()];
        let registered: Vec<Arc<dyn MiddlewareSecurity>> = raw
            .iter()
            .map(|e| match &tracer {
                Some(t) => Arc::new(TracedEndpoint {
                    inner: Arc::clone(e),
                    tracer: Arc::clone(t),
                }) as Arc<dyn MiddlewareSecurity>,
                None => Arc::clone(e),
            })
            .collect();
        for e in registered {
            bus.register(e);
        }
        // The gate's first review analyses the whole store cold; doing
        // it here leaves later reviews the incremental path.
        gate.review(&bus.unified(), &bus.unified());
        let target = Arc::new(BusTarget {
            bus: Arc::clone(&bus),
            domains: world
                .domains
                .iter()
                .map(|d| Domain::new(d.as_str()))
                .collect(),
            rejected: Mutex::new(Vec::new()),
            tracer: tracer.clone(),
        });
        let keycom = KeyComService::new(
            Arc::clone(&admin_trust),
            Arc::clone(&target) as Arc<dyn MiddlewareSecurity>,
        );
        let (windows, unix) = world.operating_systems();
        let app_denied: Vec<String> = world.tables.app_denied.iter().cloned().collect();
        let layers: Vec<(Arc<dyn AuthzLayer>, LayerSpan)> = vec![
            (
                Arc::new(WindowsOsLayer::new(windows, world.windows_objects())),
                LayerSpan::Os,
            ),
            (
                Arc::new(UnixOsLayer::new(unix, world.unix_objects())),
                LayerSpan::Os,
            ),
            (
                Arc::new(MiddlewareLayer::new(raw[0].clone())),
                LayerSpan::Middleware,
            ),
            (
                Arc::new(MiddlewareLayer::new(raw[1].clone())),
                LayerSpan::Middleware,
            ),
            (
                Arc::new(MiddlewareLayer::new(raw[2].clone())),
                LayerSpan::Middleware,
            ),
            (
                Arc::new(TrustLayer::new(Arc::clone(&trust))),
                LayerSpan::Trust,
            ),
            (
                Arc::new(ApplicationLayer::denying(app_denied)),
                LayerSpan::App,
            ),
        ];
        let mut stack = AuthzStack::new().with_cache(STACK_CACHE);
        let mut uncached = AuthzStack::new();
        for (l, span) in layers {
            stack.push(layer(Arc::clone(&l), span, &tracer));
            uncached.push(l);
        }
        let env = Env {
            keycom,
            target,
            credential,
            admin_trust,
            bus,
            endpoints: raw.to_vec(),
            stack,
            uncached,
            trust,
            fresh,
            sentinels,
            candidates,
            model: Mutex::new(world.tables),
            tracer,
        };
        // Decide every probe once, so each read-back probes a request
        // the stack decided before the change; each must match the model.
        {
            let model = env.model.lock().expect("model lock");
            for p in env.all_probes() {
                let got = env.stack.decide(&p.context()).permitted;
                assert_eq!(
                    got,
                    env.expect(&model, p),
                    "initial verdict for {} on {}",
                    p.user,
                    p.component.id
                );
            }
        }
        let commission = t2.elapsed();
        (
            env,
            SetupPhases {
                store,
                sign,
                commission,
            },
        )
    }

    fn op(env: &Env, _rng: &mut Rng, seq: u64) -> (Duration, Check) {
        let round = (seq / Self::ROUND) as usize;
        let n = env.fresh.len();
        let step = &step_at(
            &env.fresh[round % n],
            &env.fresh[(round + n - 1) % n],
            &env.sentinels[round % env.sentinels.len()],
            &env.candidates[round % env.candidates.len()],
            seq % Self::ROUND,
        );
        let (handled, permitted, took) = env.step(step);
        let mut model = env.model.lock().expect("model lock");
        let before = env.expect(&model, &step.probe);
        let valid = match &step.change {
            PolicyChange::Grant(g) => !model.middleware.grants.contains(&grant_row(g)),
            _ => true,
        };
        let check = match handled {
            // The gate refused a grant the model takes as valid: the
            // rows stay as they were, and so must the read-back.
            Err(_)
                if valid
                    && matches!(step.change, PolicyChange::Grant(_))
                    && env.target.rejected_as_widening()
                    && permitted == before =>
            {
                Check::Fault
            }
            Err(e) => Check::Wrong(format!("KeyCom refused {:?}: {e}", step.change)),
            Ok(()) => {
                replay(&mut model.middleware, &step.change);
                let expected = env.expect(&model, &step.probe);
                let removal = matches!(
                    step.change,
                    PolicyChange::Unassign(_) | PolicyChange::Revoke(_)
                );
                if permitted == expected {
                    Check::Ok
                } else if removal
                    && permitted
                    && before
                    && env.uncached.decide(&step.probe.context()).permitted == expected
                {
                    Check::Fault
                } else {
                    Check::Wrong(format!(
                        "after {:?}, {} on {} read back {permitted}, model says {expected}",
                        step.change, step.probe.user, step.probe.component.id
                    ))
                }
            }
        };
        (took, check)
    }

    fn verify(env: &Env, _run: &Run) -> Vec<String> {
        let model = env.model.lock().expect("model lock");
        let mut errors = Vec::new();
        let unified = Rows::of_policy(&env.bus.unified());
        if unified != model.middleware {
            errors.push(
                "final state: the bus's unified policy differs from the replayed change list"
                    .to_string(),
            );
        }
        for e in &env.endpoints {
            let domains: Vec<String> = e.owned_domains().iter().map(|d| d.to_string()).collect();
            let have = Rows::of_policy(&e.export_policy()).restricted(&domains);
            if have != model.middleware.restricted(&domains) {
                errors.push(format!(
                    "final state: endpoint {} differs from the replayed change list",
                    e.instance_name()
                ));
            }
        }
        errors
    }

    fn counters(env: &Env) -> Counters {
        let trust = env.trust.cache_stats();
        let stack = env.stack.cache_stats().expect("stack is cached");
        Counters {
            trust_hits: trust.hits,
            trust_misses: trust.misses,
            stack_hits: stack.hits,
            stack_misses: stack.misses,
            verify_cold: env.admin_trust.verify_cache_stats().misses,
            admin_store_len: env.admin_trust.credential_count() as u64,
            ..Counters::default()
        }
    }

    fn teardown(_env: Env) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::closed_loop;

    fn checks(env: &Env, seqs: std::ops::Range<u64>) -> Vec<Check> {
        let rng = &mut Rng::new(0, 0);
        seqs.map(|seq| AdminChurn::op(env, rng, seq).1).collect()
    }

    #[test]
    fn tiny_runs_pass_their_checks_on_two_seeds() {
        for seed in [1, 2] {
            let (env, _) = AdminChurn::setup(seed, None);
            let run = closed_loop::<AdminChurn>(&env, seed, 50);
            assert_eq!(run.wrong, 0, "{:?}", run.errors);
            // The sentinel read-back and the grant of every round fail.
            assert_eq!(run.failed * AdminChurn::ROUND, run.attempted * 2);
            assert_eq!(AdminChurn::verify(&env, &run), Vec::<String>::new());
        }
    }

    #[test]
    fn each_round_counts_its_two_faults() {
        let (env, _) = AdminChurn::setup(3, None);
        // 27 EJB and 18 CORBA pairs; every COM+ role holds all three.
        assert_eq!(env.candidates.len(), 45);
        let got = checks(&env, 0..2);
        assert!(matches!(got[..], [Check::Ok, Check::Fault]));
        // The stale read-back is the stack cache's doing.
        let probe = env.sentinels[0].probe.context();
        assert!(env.stack.decide(&probe).permitted, "cached stack");
        assert!(!env.uncached.decide(&probe).permitted, "uncached stack");
        // The grant is refused by the gate, for widening a grant.
        assert!(matches!(checks(&env, 2..3)[..], [Check::Fault]));
        assert!(env.target.rejected_as_widening());
        let got = checks(&env, 3..5);
        assert!(matches!(got[..], [Check::Ok, Check::Ok]));
    }

    #[test]
    fn verdict_check_rejects_a_wrong_model() {
        let (env, _) = AdminChurn::setup(4, None);
        checks(&env, 0..4);
        // Drop the sentinel's grant from the model: it then expects the
        // restored sentinel to be denied, which the program rightly
        // grants.
        let c = &env.sentinels[0].probe.component;
        let grant = (
            c.domain.clone(),
            "Sentinel".to_string(),
            c.object.clone(),
            c.permission.clone(),
        );
        env.model.lock().unwrap().middleware.grants.remove(&grant);
        assert!(matches!(checks(&env, 4..5)[..], [Check::Wrong(_)]));
    }

    #[test]
    fn refused_grant_counts_only_when_the_model_takes_it_as_valid() {
        let (env, _) = AdminChurn::setup(6, None);
        checks(&env, 0..2);
        // A model that already holds the grant does not take it as a
        // change, so the gate's refusal is no longer the known fault.
        let row = grant_row(&env.candidates[0].row);
        env.model.lock().unwrap().middleware.grants.insert(row);
        assert!(matches!(checks(&env, 2..3)[..], [Check::Wrong(_)]));
    }

    #[test]
    fn final_state_check_rejects_a_drifted_endpoint() {
        let (env, _) = AdminChurn::setup(5, None);
        let run = closed_loop::<AdminChurn>(&env, 5, 25);
        assert!(AdminChurn::verify(&env, &run).is_empty());
        let ejb = env.endpoints[1].owned_domains()[0].clone();
        env.endpoints[1]
            .assign(&RoleAssignment::new("intruder", ejb.as_str(), "Role0"))
            .unwrap();
        let errors = AdminChurn::verify(&env, &run);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("EJB"), "{errors:?}");
    }
}
