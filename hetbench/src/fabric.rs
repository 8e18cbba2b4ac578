//! `fabric_signed`: credentialed ops over real TCP. Two masters, each
//! with one pipelined serving client reached over `MuxTransport`, on a
//! shared consistent-hash ring. Principals are authorised by strict
//! trust through the `serve` demo's chain: POLICY licenses an RSA
//! delegator key, which signs one delegation per principal. Masters
//! sign verdict stamps over the delegations they forward. Every op
//! enters master 0, so ops owned by shard 1 take the `TcpPeerLink`
//! forward hop: a round is three ops for principals master 0 owns and
//! one for a principal master 1 owns. New principals are enrolled at a
//! fixed op interval early in each segment, so most of a segment runs
//! against the same final set of delegations whatever the throughput.
//! Decisions are cheap; sockets, the codec, forwards, stamps and RSA
//! carry the time.

use crate::harness::{Check, Counters, Run, SetupPhases, Workload};
use crate::rng::Rng;
use crate::trace::{timed_self, TracedPeer, TracedTransport, Tracer};
use hetsec_crypto::KeyPair;
use hetsec_graphs::Value;
use hetsec_keynote::{sign_assertion, Assertion, LicenseeExpr, Principal};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use hetsec_webcom::{
    serve_master, serve_tcp_with, ArithComponentExecutor, AuthzStack, ClientConfig, ClientEngine,
    ClientTransport, ExecOutcome, MasterServer, MuxTransport, PeerLink, ScheduledAction,
    ServeOptions, ShardInfo, ShardRing, StampIssuer, StampVerifier, TcpClientServer, TcpPeerLink,
    TrustLayer, TrustManager, WebComMaster,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Principals with a delegation forwarded before a segment starts.
const INITIAL_PRINCIPALS: usize = 24;
/// Principals enrolled during a segment, one every [`ENROL_EVERY`] ops
/// (the last at op 512 of 4096), from delegations signed during
/// set-up. The op that enrols re-signs every stamp, so the pool stays
/// well below the 40 ops a segment has beyond its p99.
const ENROL_POOL: usize = 8;
const ENROL_EVERY: u64 = 64;
/// Server-side workers per connection and mux window. A single worker
/// (the sequential read-handle-write loop) measured slower and no
/// steadier with one caller.
const PIPELINE: usize = 2;
const WINDOW: usize = 8;

pub struct Env {
    masters: Vec<Arc<WebComMaster>>,
    servers: Vec<TcpClientServer>,
    master_servers: Vec<MasterServer>,
    ring: ShardRing,
    principals: Vec<String>,
    delegations: Vec<Assertion>,
    /// Principals whose delegation every master forwards.
    enrolled: AtomicUsize,
    issuers: Vec<Arc<StampIssuer>>,
    user_trusts: Vec<Arc<TrustManager>>,
    client_trust: Arc<TrustManager>,
    action: ScheduledAction,
    tracer: Option<Arc<Tracer>>,
    ops: AtomicU64,
    /// Ops sent to master 0 whose principal the ring places on shard 1.
    off_shard: AtomicU64,
}

fn licensing(keys: &[String]) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    for k in keys {
        tm.add_policy(&format!(
            "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n"
        ))
        .expect("licensing policy parses");
    }
    Arc::new(tm)
}

impl Env {
    /// Schedules one op through master 0 and returns its outcome and
    /// the time of the call.
    fn schedule(&self, principal: &str, a: i64, b: i64) -> (ExecOutcome, Duration) {
        if self.ring.owner_of(principal) != 0 {
            self.off_shard.fetch_add(1, Ordering::Relaxed);
        }
        let user = User::new("worker");
        let call = || {
            self.masters[0].schedule(
                &self.action,
                &user,
                principal,
                vec![Value::Int(a), Value::Int(b)],
            )
        };
        let t0 = Instant::now();
        let out = match &self.tracer {
            Some(t) => timed_self(&t.master_self, call),
            None => call(),
        };
        (out, t0.elapsed())
    }

    /// Pushes the next pooled delegation to every master, then makes its
    /// principal eligible for ops. Only the one caller enrols.
    fn enrol_next(&self) {
        let next = self.enrolled.load(Ordering::SeqCst);
        if next >= self.principals.len() {
            return;
        }
        for m in &self.masters {
            m.forward_credential(self.delegations[next].clone());
        }
        self.enrolled.store(next + 1, Ordering::SeqCst);
    }
}

/// Seed-derived principal names, the i-th owned by shard `i % 2`, so
/// every prefix of the enrolment order splits evenly between the
/// shards and each round picks its local and its forwarded principals
/// by index, whatever the seed.
fn principal_names(seed: u64) -> Vec<String> {
    let ring = ShardRing::new(SHARDS);
    let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); SHARDS];
    let per_shard = (INITIAL_PRINCIPALS + ENROL_POOL).div_ceil(SHARDS);
    let mut n = 0u64;
    while by_shard.iter().any(|v| v.len() < per_shard) {
        let name = format!("Kp{seed:x}n{n}");
        n += 1;
        let home = &mut by_shard[ring.owner_of(&name)];
        if home.len() < per_shard {
            home.push(name);
        }
    }
    (0..INITIAL_PRINCIPALS + ENROL_POOL)
        .map(|i| by_shard[i % SHARDS][i / SHARDS].clone())
        .collect()
}

/// Every fabric op is granted and must return the sum of its operands.
fn check(a: i64, b: i64, out: &ExecOutcome) -> Check {
    if *out == ExecOutcome::Ok(Value::Int(a + b)) {
        Check::Ok
    } else {
        Check::Wrong(format!("{a} + {b} gave {out:?}"))
    }
}

pub struct FabricSigned;

impl Workload for FabricSigned {
    /// One caller. With two, forwards queue on `TcpPeerLink`'s
    /// connection lock and p99 follows the host's scheduling noise: over
    /// four paired 10 s runs its spread was 47%, against 10% with one.
    const CALLERS: usize = 1;
    /// Three local ops, then one forwarded: p50 falls among the local
    /// ops and p99 in the forwarded ones' tail, neither on the edge
    /// between the two.
    const ROUND: u64 = 4;
    const SEGMENT_OPS: u64 = 4096;
    type Env = Env;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>) -> (Env, SetupPhases) {
        // Keys and signatures: the delegator, one delegation per
        // principal, and each master's stamp-signing identity.
        let t0 = Instant::now();
        // Fixed labels: deriving a key searches for primes, and the
        // search length differs from label to label.
        let delegator = KeyPair::from_label("hetbench-delegator");
        let delegator_key = delegator.public().to_text();
        let principals = principal_names(seed);
        let delegations: Vec<Assertion> = principals
            .iter()
            .map(|p| {
                let mut a = Assertion::new(
                    Principal::key(delegator_key.clone()),
                    LicenseeExpr::Principal(p.clone()),
                );
                sign_assertion(&mut a, &delegator).expect("delegation signs");
                a
            })
            .collect();
        let issuers: Vec<Arc<StampIssuer>> = (0..SHARDS)
            .map(|s| {
                Arc::new(StampIssuer::new(KeyPair::from_label(&format!(
                    "hetbench-stamp-{s}"
                ))))
            })
            .collect();
        let sign = t0.elapsed();

        // Trust stores: strict user trust per client (POLICY → delegator),
        // and the permissive client/master licensing policies.
        let t1 = Instant::now();
        let user_policy = format!(
            "Authorizer: POLICY\nLicensees: \"{delegator_key}\"\nConditions: app_domain==\"WebCom\";\n"
        );
        let user_trusts: Vec<Arc<TrustManager>> = (0..SHARDS)
            .map(|_| {
                let tm = TrustManager::strict();
                tm.add_policy(&user_policy).expect("user policy parses");
                Arc::new(tm)
            })
            .collect();
        let master_keys: Vec<String> = (0..SHARDS).map(|s| format!("Kmaster{s}")).collect();
        let client_keys: Vec<String> = (0..SHARDS).map(|s| format!("Kclient{s}")).collect();
        let client_trust = licensing(&client_keys);
        let master_trust = licensing(&master_keys);
        let store = t1.elapsed();

        // Commissioning: serving clients, masters, peer links, warm-up.
        let t2 = Instant::now();
        let fleet = |cache| {
            let mut v = StampVerifier::new(cache);
            for issuer in &issuers {
                v = v.trust_issuer(issuer.key_text());
            }
            Arc::new(v)
        };
        let mut servers = Vec::new();
        let mut masters = Vec::new();
        for s in 0..SHARDS {
            let mut stack = AuthzStack::new();
            stack.push(Arc::new(TrustLayer::new(Arc::clone(&user_trusts[s]))));
            let engine = ClientEngine::new(ClientConfig {
                name: format!("client{s}"),
                key_text: client_keys[s].clone(),
                master_trust: Arc::clone(&master_trust),
                stack: Arc::new(stack),
                executor: Arc::new(ArithComponentExecutor),
            })
            .with_stamp_verifier(fleet(user_trusts[s].verify_cache()));
            let server = serve_tcp_with(
                Arc::new(engine),
                vec!["Dom".into()],
                "127.0.0.1:0",
                ServeOptions { pipeline: PIPELINE },
            )
            .expect("serving client binds");
            let master = WebComMaster::new(master_keys[s].clone(), Arc::clone(&client_trust))
                .with_op_timeout(Duration::from_secs(10))
                .with_stamp_issuer(Arc::clone(&issuers[s]))
                .with_stamp_verifier(fleet(client_trust.verify_cache()));
            let mux: Arc<dyn ClientTransport> =
                Arc::new(MuxTransport::new(server.local_addr()).with_window(WINDOW));
            let transport: Arc<dyn ClientTransport> = match &tracer {
                Some(t) => Arc::new(TracedTransport {
                    inner: mux,
                    capture: true,
                    tracer: Arc::clone(t),
                }),
                None => mux,
            };
            master.register_transport(
                format!("client{s}"),
                client_keys[s].clone(),
                transport,
                vec!["Dom".into()],
            );
            for d in &delegations[..INITIAL_PRINCIPALS] {
                master.forward_credential(d.clone());
            }
            servers.push(server);
            masters.push(Arc::new(master));
        }
        let master_servers: Vec<MasterServer> = masters
            .iter()
            .map(|m| serve_master(Arc::clone(m), "127.0.0.1:0").expect("master endpoint binds"))
            .collect();
        let ring = Arc::new(ShardRing::new(SHARDS));
        for (i, m) in masters.iter().enumerate() {
            let peers: HashMap<usize, Arc<dyn PeerLink>> = (0..SHARDS)
                .filter(|&j| j != i)
                .map(|j| {
                    let tcp: Arc<dyn PeerLink> =
                        Arc::new(TcpPeerLink::new(master_servers[j].local_addr()));
                    let link: Arc<dyn PeerLink> = match &tracer {
                        Some(t) => Arc::new(TracedPeer {
                            inner: tcp,
                            tracer: Arc::clone(t),
                        }),
                        None => tcp,
                    };
                    (j, link)
                })
                .collect();
            m.set_shard(Arc::new(ShardInfo {
                ring: Arc::clone(&ring),
                shard_id: i,
                peers,
            }));
        }
        let env = Env {
            masters,
            servers,
            master_servers,
            ring: ShardRing::new(SHARDS),
            principals,
            delegations,
            enrolled: AtomicUsize::new(INITIAL_PRINCIPALS),
            issuers,
            user_trusts,
            client_trust,
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            tracer,
            ops: AtomicU64::new(0),
            off_shard: AtomicU64::new(0),
        };
        // Warm-up: one op per initial principal opens the connections
        // and verifies each delegation once.
        for i in 0..INITIAL_PRINCIPALS {
            let (out, _) = env.schedule(&env.principals[i].clone(), i as i64, 1);
            assert_eq!(
                out,
                ExecOutcome::Ok(Value::Int(i as i64 + 1)),
                "warm-up op {i}"
            );
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

    fn op(env: &Env, rng: &mut Rng, seq: u64) -> (Duration, Check) {
        env.ops.fetch_add(1, Ordering::Relaxed);
        if seq > 0 && seq.is_multiple_of(ENROL_EVERY) {
            env.enrol_next();
        }
        // Principal `i` is owned by shard `i % 2`: an even index for the
        // three local ops of a round, an odd one for the forwarded op.
        let shard = usize::from(seq % Self::ROUND == Self::ROUND - 1);
        let enrolled = env.enrolled.load(Ordering::SeqCst);
        let principal = &env.principals[2 * rng.below((enrolled - shard).div_ceil(2)) + shard];
        let (a, b) = (rng.below(1 << 20) as i64, rng.below(1 << 20) as i64);
        let (out, took) = env.schedule(principal, a, b);
        (took, check(a, b, &out))
    }

    fn verify(env: &Env, _run: &Run) -> Vec<String> {
        let mut errors = Vec::new();
        let ops = env.ops.load(Ordering::Relaxed) as usize + INITIAL_PRINCIPALS;
        let (mut executed, mut replayed) = (0, 0);
        for s in &env.servers {
            let stats = s.engine().stats();
            executed += stats.executed;
            replayed += stats.replayed;
        }
        if executed != ops || replayed != 0 {
            errors.push(format!(
                "exactly once: {ops} ops, clients executed {executed} (replayed {replayed})"
            ));
        }
        let off_shard = env.off_shard.load(Ordering::Relaxed) as usize;
        let home = env.masters[0].stats();
        let peer = env.masters[1].stats();
        if home.forwarded != off_shard || peer.forward_received != off_shard {
            errors.push(format!(
                "forwards: {off_shard} ops owned by shard 1, master 0 forwarded {}, master 1 received {}",
                home.forwarded, peer.forward_received
            ));
        }
        errors
    }

    fn counters(env: &Env) -> Counters {
        let mut c = Counters::default();
        for s in &env.servers {
            c.stamps_admitted += s.engine().stats().stamps.admitted;
        }
        for m in &env.masters {
            c.stamps_admitted += m.stats().stamps_admitted;
        }
        c.stamps_issued = env.issuers.iter().map(|i| i.issued()).sum();
        for tm in env
            .user_trusts
            .iter()
            .chain(std::iter::once(&env.client_trust))
        {
            c.verify_cold += tm.verify_cache_stats().misses;
            let cache = tm.cache_stats();
            c.trust_hits += cache.hits;
            c.trust_misses += cache.misses;
        }
        c
    }

    fn teardown(env: Env) {
        for ms in env.master_servers {
            ms.stop();
        }
        for s in env.servers {
            s.stop();
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
            let (env, _) = FabricSigned::setup(seed, None);
            let run = closed_loop::<FabricSigned>(&env, seed, 600);
            assert_eq!(env.enrolled.load(Ordering::SeqCst), env.principals.len());
            assert_eq!((run.wrong, run.failed), (0, 0), "{:?}", run.errors);
            assert_eq!(FabricSigned::verify(&env, &run), Vec::<String>::new());
            FabricSigned::teardown(env);
        }
    }

    #[test]
    fn result_check_rejects_a_wrong_sum() {
        let (env, _) = FabricSigned::setup(3, None);
        let (out, _) = env.schedule(&env.principals[0], 2, 3);
        assert!(matches!(check(2, 3, &out), Check::Ok));
        assert!(matches!(check(2, 4, &out), Check::Wrong(_)));
        FabricSigned::teardown(env);
    }

    #[test]
    fn exactly_once_check_rejects_a_miscount() {
        let (env, _) = FabricSigned::setup(4, None);
        let run = closed_loop::<FabricSigned>(&env, 4, 64);
        assert!(FabricSigned::verify(&env, &run).is_empty());
        // One op more than the clients executed, one forward more than
        // master 0 made: both checks must object.
        env.ops.fetch_add(1, Ordering::Relaxed);
        env.off_shard.fetch_add(1, Ordering::Relaxed);
        assert_eq!(FabricSigned::verify(&env, &run).len(), 2);
        FabricSigned::teardown(env);
    }
}
