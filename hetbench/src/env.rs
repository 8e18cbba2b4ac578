//! The paper's heterogeneous environment (Fig 9/10), generated from a
//! seed: COM+, EJB and CORBA endpoints, Windows and Unix OS security,
//! a KeyNote trust store encoding the unified RBAC policy, and an
//! application deny list. `hetero_stack` and `admin_churn` both build
//! on it; the benchmark's own [`Tables`] describe the same state.

use crate::model::{Component, Rows, Tables, UnixObj};
use crate::rng::Rng;
use crate::trace::{LayerSpan, TracedLayer, Tracer};
use hetsec_com::ComMiddleware;
use hetsec_corba::CorbaMiddleware;
use hetsec_ejb::EjbMiddleware;
use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::{CorbaDomain, EjbDomain, MiddlewareKind};
use hetsec_os::unix::{Mode, UnixObject, UnixSecurity, UnixUser};
use hetsec_os::windows::{AccessMask, Ace, AceKind, Sid, WindowsSecurity};
use hetsec_rbac::{PermissionGrant, RbacPolicy, RoleAssignment, User};
use hetsec_translate::{encode_policy, SymbolicDirectory};
use hetsec_webcom::{AuthzLayer, ComponentExecutor, ExecError, MiddlewareExecutor, TrustManager};
use std::sync::Arc;

/// The NT domain of the COM+ machine (and of its Windows OS layer).
pub const COM_DOMAIN: &str = "CORP";
/// The key the `HasPermission` policy assertion licenses.
const WEBCOM_KEY: &str = "KWebCom";
const EJB_METHODS: [&str; 4] = ["read", "write", "approve", "audit"];
const CORBA_OPS: [&str; 3] = ["query", "update", "log"];

/// Size of a generated environment.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub users: usize,
    /// Roles per domain.
    pub roles: usize,
    /// Object types per domain (COM+ applications, beans, interfaces).
    pub objects: usize,
    /// Components each role is granted.
    pub grants_per_role: usize,
}

/// The domain names of the three middlewares.
pub fn domains() -> [String; 3] {
    [
        COM_DOMAIN.to_string(),
        EjbDomain::new("apphost", "ejbsrv", "Payroll").to_string(),
        CorbaDomain::new("apphost", "payorb").to_string(),
    ]
}

/// The generated environment as the benchmark models it.
pub struct World {
    pub tables: Tables,
    pub components: Vec<Component>,
    pub users: Vec<String>,
    pub domains: [String; 3],
    /// One membership per user that the policy lacks, in the domain
    /// where the user holds no role, in the users' permuted order.
    pub vacant: Vec<(String, String, String)>,
}

impl World {
    /// Generates the tables for `seed`.
    pub fn generate(seed: u64, spec: Spec) -> World {
        let mut rng = Rng::new(seed, 0x0E17);
        let domains = domains();
        let roles: Vec<String> = (0..spec.roles).map(|r| format!("Role{r}")).collect();
        let users: Vec<String> = (0..spec.users).map(|u| format!("u{u}")).collect();
        let mut components = Vec::new();
        for i in 0..spec.objects {
            components.push(Component::new(
                MiddlewareKind::ComPlus,
                &domains[0],
                &format!("App{i}"),
                &format!("Svc{i}"),
            ));
            for m in EJB_METHODS {
                components.push(Component::new(
                    MiddlewareKind::Ejb,
                    &domains[1],
                    &format!("Bean{i}"),
                    m,
                ));
            }
            for op in CORBA_OPS {
                components.push(Component::new(
                    MiddlewareKind::Corba,
                    &domains[2],
                    &format!("If{i}"),
                    op,
                ));
            }
        }
        let mut tables = Tables::default();
        let mut rows = Rows::default();
        // The seed renames, it does not reshape: every seed yields the
        // same overlap structure between roles, users and components,
        // under seeded permutations of objects, roles and users.
        // Role j of a domain is granted `grants_per_role` consecutive
        // components (stride 2) of the domain's permuted list; user k
        // holds 1 + k % 2 roles, at fixed positions of the permuted
        // role lists.
        let role_order: Vec<Vec<&String>> = domains
            .iter()
            .map(|_| {
                let mut order: Vec<&String> = roles.iter().collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        for (di, d) in domains.iter().enumerate() {
            // Permute whole objects, keeping each object's operations
            // together and in order, so the set of attribute values a
            // role's grants name has the same shape for every seed.
            let mut objects: Vec<Vec<&Component>> = Vec::new();
            for c in components.iter().filter(|c| &c.domain == d) {
                match objects.last_mut() {
                    Some(group) if group[0].object == c.object => group.push(c),
                    _ => objects.push(vec![c]),
                }
            }
            rng.shuffle(&mut objects);
            let in_domain: Vec<&Component> = objects.into_iter().flatten().collect();
            for (j, r) in role_order[di].iter().enumerate() {
                for t in 0..spec.grants_per_role {
                    let c = in_domain[(2 * j + t) % in_domain.len()];
                    rows.grants.insert((
                        d.clone(),
                        r.to_string(),
                        c.object.clone(),
                        c.permission.clone(),
                    ));
                }
            }
        }
        let mut user_order: Vec<&String> = users.iter().collect();
        rng.shuffle(&mut user_order);
        let mut vacant = Vec::with_capacity(users.len());
        for (k, u) in user_order.iter().enumerate() {
            for extra in 0..3 {
                let di = (k + extra) % 3;
                let r = role_order[di][(k / 3 + extra) % roles.len()];
                let row = (u.to_string(), domains[di].clone(), r.to_string());
                if extra <= k % 2 {
                    rows.assignments.insert(row);
                } else if extra == 2 {
                    vacant.push(row);
                }
            }
            tables.key_owner.insert(format!("K{u}"), u.to_string());
        }
        tables.trust = rows.clone();
        tables.middleware = rows;
        // Windows: every third COM+ application carries an EXECUTE ACE
        // for its own group; four users in five belong to each group.
        // Unix: every third bean and interface has an owner, a group
        // and a mode drawn from a fixed set.
        for (k, u) in users.iter().enumerate() {
            tables
                .unix_users
                .insert(u.clone(), (1000 + k as u32, 100 + (k % 8) as u32));
        }
        const MODES: [u16; 4] = [0o750, 0o770, 0o755, 0o700];
        for i in (0..spec.objects).step_by(3) {
            let allowed = users.iter().filter(|_| rng.chance(0.8)).cloned().collect();
            tables.acl_allowed.insert(format!("App{i}"), allowed);
            for object in [format!("Bean{i}"), format!("If{i}")] {
                tables.unix_objects.insert(
                    object,
                    UnixObj {
                        owner: 1000 + rng.below(users.len()) as u32,
                        group: 100 + rng.below(8) as u32,
                        mode: MODES[rng.below(MODES.len())],
                    },
                );
            }
        }
        // The application layer vetoes one component in 25.
        for c in components.iter().skip(24).step_by(25) {
            tables.app_denied.insert(c.id.clone());
        }
        World {
            tables,
            components,
            users,
            domains,
            vacant,
        }
    }

    /// The program's policy for a set of rows.
    pub fn policy(rows: &Rows) -> RbacPolicy {
        let mut p = RbacPolicy::new();
        for (d, r, t, perm) in &rows.grants {
            p.grant(PermissionGrant::new(
                d.as_str(),
                r.as_str(),
                t.as_str(),
                perm.as_str(),
            ));
        }
        for (u, d, r) in &rows.assignments {
            p.assign(RoleAssignment::new(u.as_str(), d.as_str(), r.as_str()));
        }
        p
    }

    /// Compiles the trust layer's store: the KeyNote encoding of the
    /// trust rows (Fig 5 policy assertion plus Fig 6 credentials).
    pub fn trust_manager(&self) -> Arc<TrustManager> {
        let tm = TrustManager::permissive();
        let policy = Self::policy(&self.tables.trust);
        for a in encode_policy(&policy, WEBCOM_KEY, &SymbolicDirectory::default()) {
            tm.add_policy_assertion(a)
                .expect("encoded policy assertion compiles");
        }
        Arc::new(tm)
    }

    /// Empty middleware endpoints, with every COM+ class registered so
    /// the native call path finds it.
    pub fn endpoints(&self) -> Endpoints {
        let com = Arc::new(ComMiddleware::new(COM_DOMAIN));
        for c in self
            .components
            .iter()
            .filter(|c| c.kind == MiddlewareKind::ComPlus)
        {
            com.catalog().register_class(&c.object, &c.operation);
        }
        Endpoints {
            com,
            ejb: Arc::new(EjbMiddleware::new(EjbDomain::new(
                "apphost", "ejbsrv", "Payroll",
            ))),
            corba: Arc::new(CorbaMiddleware::new(CorbaDomain::new("apphost", "payorb"))),
        }
    }

    /// The Windows and Unix machines described by the OS tables.
    pub fn operating_systems(&self) -> (Arc<WindowsSecurity>, Arc<UnixSecurity>) {
        let windows = Arc::new(WindowsSecurity::new(COM_DOMAIN));
        for (object, allowed) in &self.tables.acl_allowed {
            let group = format!("g-{object}");
            windows.with_domain(|d| {
                d.add_group(&group);
                for u in allowed {
                    d.add_member(&group, u);
                }
            });
            windows.add_ace(
                object,
                Ace {
                    kind: AceKind::Allow,
                    trustee: Sid::of(COM_DOMAIN, &group),
                    mask: AccessMask::EXECUTE,
                },
            );
        }
        let unix = Arc::new(UnixSecurity::new());
        for (u, &(uid, gid)) in &self.tables.unix_users {
            unix.add_user(
                u,
                UnixUser {
                    uid,
                    gid,
                    groups: vec![],
                },
            );
        }
        for (object, o) in &self.tables.unix_objects {
            unix.set_object(
                object,
                UnixObject {
                    owner: o.owner,
                    group: o.group,
                    mode: Mode::from_octal(o.mode),
                },
            );
        }
        (windows, unix)
    }

    /// Objects each OS layer mediates.
    pub fn windows_objects(&self) -> Vec<String> {
        self.tables.acl_allowed.keys().cloned().collect()
    }

    pub fn unix_objects(&self) -> Vec<String> {
        self.tables.unix_objects.keys().cloned().collect()
    }

    pub fn component_ref(c: &Component) -> ComponentRef {
        ComponentRef::new(
            c.kind,
            c.domain.as_str(),
            c.object.as_str(),
            c.operation.as_str(),
        )
    }
}

/// The three middleware endpoints.
pub struct Endpoints {
    pub com: Arc<ComMiddleware>,
    pub ejb: Arc<EjbMiddleware>,
    pub corba: Arc<CorbaMiddleware>,
}

/// Wraps a layer in its timing decorator when the run is traced.
pub fn layer(
    inner: Arc<dyn AuthzLayer>,
    span: LayerSpan,
    tracer: &Option<Arc<Tracer>>,
) -> Arc<dyn AuthzLayer> {
    match tracer {
        Some(t) => Arc::new(TracedLayer {
            inner,
            span,
            tracer: Arc::clone(t),
        }),
        None => inner,
    }
}

/// The client's component: the native middleware call path runs first
/// (and mediates again, as in the paper's §5), then the component's
/// business logic adds its integer operands.
pub struct NativeSum(pub MiddlewareExecutor);

impl ComponentExecutor for NativeSum {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.0.invoke(user, component, args)?;
        let mut sum = 0i64;
        for a in args {
            match a {
                Value::Int(i) => sum += i,
                other => {
                    return Err(ExecError::component(format!(
                        "operand {other} is not an integer"
                    )))
                }
            }
        }
        Ok(Value::Int(sum))
    }
}
