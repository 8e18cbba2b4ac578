//! `hetero_stack`: the paper's Fig 9/10 environment in one process, over
//! the in-process channel transport. A master schedules Zipf-drawn
//! (principal, component) pairs onto two clients: a Windows system
//! serving COM+ and a Unix system serving EJB and CORBA. Each client
//! mediates through its four-layer stack (OS, middleware, KeyNote trust,
//! application) behind a decision cache, then runs the component through
//! the middleware's native call path. No socket, codec or signature work
//! runs here.

use crate::env::{layer, NativeSum, Spec, World};
use crate::harness::{Check, Counters, Run, SetupPhases, Workload};
use crate::model::{Component, Layers};
use crate::rng::Rng;
use crate::trace::{timed_self, LayerSpan, TracedExecutor, TracedTransport, Tracer};
use hetsec_graphs::Value;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_middleware::security::MiddlewareSecurity;
use hetsec_rbac::User;
use hetsec_webcom::{
    spawn_engine, ApplicationLayer, AuthzLayer, AuthzStack, ChannelTransport, ClientConfig,
    ClientEngine, ClientHandle, ClientTransport, ComponentExecutor, ExecOutcome,
    MiddlewareExecutor, MiddlewareLayer, ScheduledAction, TrustLayer, TrustManager, UnixOsLayer,
    WebComMaster, WindowsOsLayer, ZipfSampler,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment size: 1500 users in 1-2 of 10 roles per domain, 20
/// object types per domain, 10 components granted per role.
const SPEC: Spec = Spec {
    users: 1500,
    roles: 10,
    objects: 20,
    grants_per_role: 10,
};
/// Distinct granted (principal, role, component) pairs drawn from.
const GRANT_PAIRS: usize = 8192;
/// Deny-by-design pairs per cause (OS, application, trust, role).
const DENY_PAIRS_PER_CAUSE: usize = 256;
/// Zipf exponent over pair ranks: that of the repository's own traffic
/// model (`LoadConfig::default` in `hetsec_webcom::load`).
const ZIPF: f64 = 1.1;
/// One op in [`DENY_EVERY`] is drawn from the deny pairs.
const DENY_EVERY: u64 = 8;
/// Whole-stack decision cache per client, the size of the trust
/// manager's own decision cache.
const STACK_CACHE: usize = 1024;
const MASTER_KEY: &str = "Kmaster";

/// Layers of the Windows client (COM+) and the Unix client (EJB, CORBA).
const WINDOWS_LAYERS: Layers = Layers {
    windows_os: true,
    unix_os: false,
    com: true,
    ejb: false,
    corba: false,
};
const UNIX_LAYERS: Layers = Layers {
    windows_os: false,
    unix_os: true,
    com: false,
    ejb: true,
    corba: true,
};

/// One schedulable request and the benchmark's verdict on it.
struct Pair {
    action: ScheduledAction,
    user: User,
    principal: String,
    permit: bool,
}

pub struct Env {
    master: WebComMaster,
    engines: Vec<Arc<ClientEngine>>,
    handles: Vec<ClientHandle>,
    stacks: Vec<Arc<AuthzStack>>,
    trust: Arc<TrustManager>,
    grants: Vec<Pair>,
    denies: Vec<Pair>,
    grant_zipf: ZipfSampler,
    deny_zipf: ZipfSampler,
    tracer: Option<Arc<Tracer>>,
    granted_ops: AtomicU64,
    denied_ops: AtomicU64,
}

fn layers_for(c: &Component) -> Layers {
    if c.kind == MiddlewareKind::ComPlus {
        WINDOWS_LAYERS
    } else {
        UNIX_LAYERS
    }
}

fn pair(world: &World, user: &str, principal: &str, role: &str, c: &Component) -> Pair {
    Pair {
        action: ScheduledAction::new(World::component_ref(c), c.domain.as_str(), role),
        user: User::new(user),
        principal: principal.to_string(),
        permit: world
            .tables
            .permits(layers_for(c), user, principal, role, c),
    }
}

/// Draws the granted pairs and the deny-by-design pairs from the
/// benchmark's tables. Denials come from four causes in equal measure:
/// the OS layer, the application deny list, a principal key the trust
/// layer does not license, and a role the user does not hold.
fn pair_tables(world: &World, seed: u64) -> (Vec<Pair>, Vec<Pair>) {
    let mut rng = Rng::new(seed, 0xA115);
    let t = &world.tables;
    let by_row: HashMap<(&str, &str, &str), &Component> = world
        .components
        .iter()
        .map(|c| {
            (
                (c.domain.as_str(), c.object.as_str(), c.permission.as_str()),
                c,
            )
        })
        .collect();
    let mut held = Vec::new();
    for (u, d, r) in &t.middleware.assignments {
        for (gd, gr, obj, perm) in t
            .middleware
            .grants
            .range((d.clone(), r.clone(), String::new(), String::new())..)
        {
            if gd != d || gr != r {
                break;
            }
            held.push((
                u.as_str(),
                r.as_str(),
                by_row[&(d.as_str(), obj.as_str(), perm.as_str())],
            ));
        }
    }
    rng.shuffle(&mut held);
    let (mut grants, mut os_denied, mut app_denied) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows_grants, mut unix_grants) = (0, 0);
    for &(u, r, c) in &held {
        let p = pair(world, u, &format!("K{u}"), r, c);
        if p.permit {
            let taken = if c.kind == MiddlewareKind::ComPlus {
                &mut windows_grants
            } else {
                &mut unix_grants
            };
            if *taken < GRANT_PAIRS / 2 {
                *taken += 1;
                grants.push(p);
            }
        } else if t.app_denied.contains(&c.id) {
            if app_denied.len() < DENY_PAIRS_PER_CAUSE {
                app_denied.push(p);
            }
        } else if os_denied.len() < DENY_PAIRS_PER_CAUSE {
            os_denied.push(p);
        }
    }
    let mut trust_denied = Vec::new();
    let mut role_denied = Vec::new();
    while trust_denied.len() < DENY_PAIRS_PER_CAUSE || role_denied.len() < DENY_PAIRS_PER_CAUSE {
        let (u, r, c) = held[rng.below(held.len())];
        let other = &world.users[rng.below(world.users.len())];
        let p = pair(world, u, &format!("K{other}"), r, c);
        if !p.permit && trust_denied.len() < DENY_PAIRS_PER_CAUSE {
            trust_denied.push(p);
        }
        let p = pair(world, other, &format!("K{other}"), r, c);
        let holds_role =
            t.middleware
                .assignments
                .contains(&(other.clone(), c.domain.clone(), r.to_string()));
        if !holds_role && !p.permit && role_denied.len() < DENY_PAIRS_PER_CAUSE {
            role_denied.push(p);
        }
    }
    let mut denies: Vec<Pair> = [os_denied, app_denied, trust_denied, role_denied]
        .into_iter()
        .flatten()
        .collect();
    rng.shuffle(&mut denies);
    (alternate_clients(grants), alternate_clients(denies))
}

/// Reorders pairs so that ranks alternate between the Windows and the
/// Unix client: whichever ranks the Zipf draw makes hot, the two client
/// threads share the load about evenly, whatever the seed.
fn alternate_clients(pairs: Vec<Pair>) -> Vec<Pair> {
    let (mut windows, mut unix): (Vec<Pair>, Vec<Pair>) = pairs
        .into_iter()
        .partition(|p| p.action.component.kind == MiddlewareKind::ComPlus);
    let n = windows.len().min(unix.len());
    windows.truncate(n);
    unix.truncate(n);
    windows
        .into_iter()
        .zip(unix)
        .flat_map(|(w, u)| [w, u])
        .collect()
}

fn permissive(keys: &[&str]) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    for k in keys {
        tm.add_policy(&format!(
            "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n"
        ))
        .expect("licensing policy parses");
    }
    Arc::new(tm)
}

/// An op is right when a permitted pair returns the sum of its
/// operands and any other pair is denied.
fn check(permit: bool, a: i64, b: i64, out: &ExecOutcome) -> Check {
    match (out, permit) {
        (ExecOutcome::Ok(Value::Int(sum)), true) if *sum == a + b => Check::Ok,
        (ExecOutcome::Denied(_), false) => Check::Ok,
        _ => Check::Wrong(format!(
            "expected {}, got {out:?}",
            if permit {
                format!("Ok({})", a + b)
            } else {
                "Denied".to_string()
            }
        )),
    }
}

pub struct HeteroStack;

impl Workload for HeteroStack {
    const CALLERS: usize = 2;
    const ROUND: u64 = DENY_EVERY;
    const SEGMENT_OPS: u64 = 65_536;
    type Env = Env;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>) -> (Env, SetupPhases) {
        let t0 = Instant::now();
        let world = World::generate(seed, SPEC);
        let trust = world.trust_manager();
        let store = t0.elapsed();

        let t1 = Instant::now();
        let policy = World::policy(&world.tables.middleware);
        let ep = world.endpoints();
        ep.com.import_policy(&policy);
        ep.ejb.import_policy(&policy);
        ep.corba.import_policy(&policy);
        let (windows, unix) = world.operating_systems();
        let app_denied: Vec<String> = world.tables.app_denied.iter().cloned().collect();
        let stack = |os: Arc<dyn AuthzLayer>, middleware: Vec<Arc<dyn AuthzLayer>>| {
            let mut s = AuthzStack::new().with_cache(STACK_CACHE);
            s.push(layer(os, LayerSpan::Os, &tracer));
            for m in middleware {
                s.push(layer(m, LayerSpan::Middleware, &tracer));
            }
            s.push(layer(
                Arc::new(TrustLayer::new(Arc::clone(&trust))),
                LayerSpan::Trust,
                &tracer,
            ));
            s.push(layer(
                Arc::new(ApplicationLayer::denying(app_denied.clone())),
                LayerSpan::App,
                &tracer,
            ));
            Arc::new(s)
        };
        let windows_stack = stack(
            Arc::new(WindowsOsLayer::new(windows, world.windows_objects())),
            vec![Arc::new(MiddlewareLayer::new(ep.com.clone()))],
        );
        let unix_stack = stack(
            Arc::new(UnixOsLayer::new(unix, world.unix_objects())),
            vec![
                Arc::new(MiddlewareLayer::new(ep.ejb.clone())),
                Arc::new(MiddlewareLayer::new(ep.corba.clone())),
            ],
        );
        let executor = |native: MiddlewareExecutor| -> Arc<dyn ComponentExecutor> {
            let inner: Arc<dyn ComponentExecutor> = Arc::new(NativeSum(native));
            match &tracer {
                Some(t) => Arc::new(TracedExecutor {
                    inner,
                    tracer: Arc::clone(t),
                }),
                None => inner,
            }
        };
        let systems = [
            (
                "sysW",
                Arc::clone(&windows_stack),
                executor(MiddlewareExecutor::new().with_com(ep.com.clone())),
                vec![world.domains[0].clone()],
            ),
            (
                "sysU",
                Arc::clone(&unix_stack),
                executor(
                    MiddlewareExecutor::new()
                        .with_ejb(ep.ejb.clone())
                        .with_corba(ep.corba.clone()),
                ),
                vec![world.domains[1].clone(), world.domains[2].clone()],
            ),
        ];
        let master = WebComMaster::new(MASTER_KEY, permissive(&["KsysW", "KsysU"]))
            .with_op_timeout(Duration::from_secs(10));
        let mut engines = Vec::new();
        let mut handles = Vec::new();
        for (name, stack, executor, domains) in systems {
            let key = format!("K{name}");
            let engine = Arc::new(ClientEngine::new(ClientConfig {
                name: name.to_string(),
                key_text: key.clone(),
                master_trust: permissive(&[MASTER_KEY]),
                stack,
                executor,
            }));
            let handle = spawn_engine(Arc::clone(&engine));
            let channel: Arc<dyn ClientTransport> =
                Arc::new(ChannelTransport::new(handle.sender()));
            let transport: Arc<dyn ClientTransport> = match &tracer {
                Some(t) => Arc::new(TracedTransport {
                    inner: channel,
                    capture: false,
                    tracer: Arc::clone(t),
                }),
                None => channel,
            };
            master.register_transport(
                name,
                key,
                transport,
                domains.into_iter().map(Into::into).collect(),
            );
            engines.push(engine);
            handles.push(handle);
        }
        let (grants, denies) = pair_tables(&world, seed);
        let commission = t1.elapsed();
        let env = Env {
            master,
            engines,
            handles,
            stacks: vec![windows_stack, unix_stack],
            trust,
            grant_zipf: ZipfSampler::new(grants.len(), ZIPF),
            deny_zipf: ZipfSampler::new(denies.len(), ZIPF),
            grants,
            denies,
            tracer,
            granted_ops: AtomicU64::new(0),
            denied_ops: AtomicU64::new(0),
        };
        (
            env,
            SetupPhases {
                store,
                sign: Duration::ZERO,
                commission,
            },
        )
    }

    fn op(env: &Env, rng: &mut Rng, seq: u64) -> (Duration, Check) {
        let state = &mut rng.next();
        let p = if seq % DENY_EVERY == DENY_EVERY - 1 {
            &env.denies[env.deny_zipf.sample(state)]
        } else {
            &env.grants[env.grant_zipf.sample(state)]
        };
        let (a, b) = (rng.below(1 << 20) as i64, rng.below(1 << 20) as i64);
        let schedule = || {
            env.master.schedule(
                &p.action,
                &p.user,
                &p.principal,
                vec![Value::Int(a), Value::Int(b)],
            )
        };
        let t0 = Instant::now();
        let out = match &env.tracer {
            Some(t) => timed_self(&t.master_self, schedule),
            None => schedule(),
        };
        let took = t0.elapsed();
        let check = check(p.permit, a, b, &out);
        if matches!(check, Check::Ok) {
            let counter = if p.permit {
                &env.granted_ops
            } else {
                &env.denied_ops
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        (took, check)
    }

    fn verify(env: &Env, _run: &Run) -> Vec<String> {
        let granted = env.granted_ops.load(Ordering::Relaxed) as usize;
        let denied = env.denied_ops.load(Ordering::Relaxed) as usize;
        let executed: usize = env.engines.iter().map(|e| e.stats().executed).sum();
        let stack_denied: usize = env.engines.iter().map(|e| e.stats().stack_denied).sum();
        let stats = env.master.stats();
        let mut errors = Vec::new();
        if executed != granted || stats.scheduled != granted {
            errors.push(format!(
                "exactly once: {granted} granted ops, clients executed {executed}, master scheduled {}",
                stats.scheduled
            ));
        }
        if stack_denied != denied || stats.client_denials != denied {
            errors.push(format!(
                "{denied} denied ops, client stacks denied {stack_denied}, master saw {}",
                stats.client_denials
            ));
        }
        errors
    }

    fn counters(env: &Env) -> Counters {
        let trust = env.trust.cache_stats();
        let (mut stack_hits, mut stack_misses) = (0, 0);
        for s in &env.stacks {
            let c = s.cache_stats().expect("stacks are cached");
            stack_hits += c.hits;
            stack_misses += c.misses;
        }
        Counters {
            trust_hits: trust.hits,
            trust_misses: trust.misses,
            stack_hits,
            stack_misses,
            verify_cold: env.trust.verify_cache_stats().misses,
            ..Counters::default()
        }
    }

    fn teardown(env: Env) {
        for h in env.handles {
            h.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::closed_loop;

    #[test]
    fn tiny_runs_pass_their_checks_on_two_seeds() {
        for seed in [1, 2] {
            let (env, _) = HeteroStack::setup(seed, None);
            let run = closed_loop::<HeteroStack>(&env, seed, 800);
            assert!(run.attempted > 0);
            assert_eq!((run.wrong, run.failed), (0, 0), "{:?}", run.errors);
            assert_eq!(HeteroStack::verify(&env, &run), Vec::<String>::new());
            // One op in DENY_EVERY is denied by design.
            assert_eq!(
                env.denied_ops.load(Ordering::Relaxed) * DENY_EVERY,
                run.attempted
            );
            HeteroStack::teardown(env);
        }
    }

    #[test]
    fn every_deny_cause_is_drawn() {
        let world = World::generate(5, SPEC);
        let (grants, denies) = pair_tables(&world, 5);
        assert_eq!(grants.len(), GRANT_PAIRS);
        assert!(denies.len() >= DENY_PAIRS_PER_CAUSE, "{}", denies.len());
        assert!(grants.iter().all(|p| p.permit) && denies.iter().all(|p| !p.permit));
    }

    #[test]
    fn verdict_and_result_checks_reject_wrong_answers() {
        let (env, _) = HeteroStack::setup(3, None);
        let granted = &env.grants[0];
        let out = env.master.schedule(
            &granted.action,
            &granted.user,
            &granted.principal,
            vec![Value::Int(2), Value::Int(3)],
        );
        assert!(matches!(check(true, 2, 3, &out), Check::Ok));
        assert!(
            matches!(check(true, 2, 4, &out), Check::Wrong(_)),
            "wrong sum accepted"
        );
        assert!(
            matches!(check(false, 2, 3, &out), Check::Wrong(_)),
            "wrong verdict accepted"
        );
        let denied = &env.denies[0];
        let out = env.master.schedule(
            &denied.action,
            &denied.user,
            &denied.principal,
            vec![Value::Int(2), Value::Int(3)],
        );
        assert!(matches!(check(false, 2, 3, &out), Check::Ok));
        assert!(
            matches!(check(true, 2, 3, &out), Check::Wrong(_)),
            "wrong verdict accepted"
        );
        HeteroStack::teardown(env);
    }

    #[test]
    fn exactly_once_check_rejects_a_miscount() {
        let (env, _) = HeteroStack::setup(4, None);
        let run = closed_loop::<HeteroStack>(&env, 4, 80);
        env.granted_ops.fetch_add(1, Ordering::Relaxed);
        assert_eq!(HeteroStack::verify(&env, &run).len(), 1);
        HeteroStack::teardown(env);
    }
}
