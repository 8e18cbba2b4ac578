//! The benchmark's own model of the heterogeneous stack: role
//! membership, permission grants, OS modes and ACLs, and the
//! application deny list, kept in plain tables and decided by rules
//! written here. Every verdict the program returns on `hetero_stack`
//! and `admin_churn` is checked against this model, never against the
//! program's own answer or a stored copy of it.

use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::RbacPolicy;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A `UserRole` row: (user, domain, role).
pub type Assignment = (String, String, String);
/// A `HasPermission` row: (domain, role, object type, permission).
pub type Grant = (String, String, String, String);

/// One component a client can execute.
#[derive(Clone, Debug)]
pub struct Component {
    pub kind: MiddlewareKind,
    pub domain: String,
    pub object: String,
    pub operation: String,
    /// The permission the middleware requires for the operation.
    pub permission: String,
    /// The program's component identifier, which the application
    /// layer's deny list names. Written out here from the documented
    /// `scheme://domain/object#operation` form.
    pub id: String,
}

impl Component {
    pub fn new(kind: MiddlewareKind, domain: &str, object: &str, operation: &str) -> Self {
        let (scheme, permission) = match kind {
            MiddlewareKind::ComPlus => ("com", "Access".to_string()),
            MiddlewareKind::Ejb => ("ejb", operation.to_string()),
            MiddlewareKind::Corba => ("corba", operation.to_string()),
        };
        Component {
            kind,
            domain: domain.to_string(),
            object: object.to_string(),
            operation: operation.to_string(),
            permission,
            id: format!("{scheme}://{domain}/{object}#{operation}"),
        }
    }
}

/// RBAC rows as sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    pub assignments: BTreeSet<Assignment>,
    pub grants: BTreeSet<Grant>,
}

impl Rows {
    pub fn holds(
        &self,
        user: &str,
        domain: &str,
        role: &str,
        object: &str,
        permission: &str,
    ) -> bool {
        self.assignments
            .contains(&(user.to_string(), domain.to_string(), role.to_string()))
            && self.grants.contains(&(
                domain.to_string(),
                role.to_string(),
                object.to_string(),
                permission.to_string(),
            ))
    }

    /// The rows of a program policy, for comparison with the model.
    pub fn of_policy(policy: &RbacPolicy) -> Rows {
        Rows {
            assignments: policy
                .assignments()
                .map(|a| (a.user.to_string(), a.domain.to_string(), a.role.to_string()))
                .collect(),
            grants: policy
                .grants()
                .map(|g| {
                    (
                        g.domain.to_string(),
                        g.role.to_string(),
                        g.object_type.to_string(),
                        g.permission.to_string(),
                    )
                })
                .collect(),
        }
    }

    /// The rows within `domains`.
    pub fn restricted(&self, domains: &[String]) -> Rows {
        Rows {
            assignments: self
                .assignments
                .iter()
                .filter(|a| domains.contains(&a.1))
                .cloned()
                .collect(),
            grants: self
                .grants
                .iter()
                .filter(|g| domains.contains(&g.0))
                .cloned()
                .collect(),
        }
    }
}

/// A Unix object: owner uid, group gid, permission bits.
#[derive(Clone, Copy, Debug)]
pub struct UnixObj {
    pub owner: u32,
    pub group: u32,
    pub mode: u16,
}

/// One layer's opinion in the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opinion {
    Grant,
    Deny,
    Abstain,
}

/// Which layers a stack holds.
#[derive(Clone, Copy, Debug)]
pub struct Layers {
    pub windows_os: bool,
    pub unix_os: bool,
    /// Middleware kinds with a layer in the stack.
    pub com: bool,
    pub ejb: bool,
    pub corba: bool,
}

/// Everything the model decides from.
#[derive(Clone, Debug, Default)]
pub struct Tables {
    /// What the trust layer's KeyNote store encodes.
    pub trust: Rows,
    /// What the middleware endpoints hold now.
    pub middleware: Rows,
    /// Windows-mediated object → users whose token the object's
    /// EXECUTE ACE allows.
    pub acl_allowed: HashMap<String, HashSet<String>>,
    /// Unix accounts: user → (uid, gid).
    pub unix_users: HashMap<String, (u32, u32)>,
    /// Unix-mediated objects.
    pub unix_objects: HashMap<String, UnixObj>,
    /// Component ids the application layer denies.
    pub app_denied: HashSet<String>,
    /// The key each user's principal text names (`K` + lowercase).
    pub key_owner: HashMap<String, String>,
}

impl Tables {
    fn windows(&self, user: &str, c: &Component) -> Opinion {
        let Some(allowed) = self.acl_allowed.get(&c.object) else {
            return Opinion::Abstain;
        };
        // The ACEs grant EXECUTE, which the Windows layer asks for on
        // `Access`/`Launch`/`execute`/`invoke`; any other permission is
        // one the layer does not understand and denies.
        let execute = matches!(
            c.permission.as_str(),
            "Access" | "Launch" | "execute" | "invoke"
        );
        if execute && allowed.contains(user) {
            Opinion::Grant
        } else {
            Opinion::Deny
        }
    }

    fn unix(&self, user: &str, c: &Component) -> Opinion {
        let Some(obj) = self.unix_objects.get(&c.object) else {
            return Opinion::Abstain;
        };
        let Some(&(uid, gid)) = self.unix_users.get(user) else {
            return Opinion::Deny;
        };
        let bits = if uid == obj.owner {
            obj.mode >> 6
        } else if gid == obj.group {
            obj.mode >> 3
        } else {
            obj.mode
        } & 0o7;
        let want = match c.permission.as_str() {
            "read" => 0o4,
            "write" => 0o2,
            _ => 0o1,
        };
        if bits & want != 0 {
            Opinion::Grant
        } else {
            Opinion::Deny
        }
    }

    /// The verdict of a stack holding `layers` under the
    /// all-present-must-grant rule: no layer denies and one grants.
    pub fn permits(
        &self,
        layers: Layers,
        user: &str,
        principal: &str,
        role: &str,
        c: &Component,
    ) -> bool {
        let mut opinions = Vec::with_capacity(6);
        if layers.windows_os {
            opinions.push(self.windows(user, c));
        }
        if layers.unix_os {
            opinions.push(self.unix(user, c));
        }
        let has_middleware = match c.kind {
            MiddlewareKind::ComPlus => layers.com,
            MiddlewareKind::Ejb => layers.ejb,
            MiddlewareKind::Corba => layers.corba,
        };
        if has_middleware {
            let held = self
                .middleware
                .holds(user, &c.domain, role, &c.object, &c.permission);
            opinions.push(if held { Opinion::Grant } else { Opinion::Deny });
        }
        let trusted = self.key_owner.get(principal).is_some_and(|owner| {
            self.trust
                .holds(owner, &c.domain, role, &c.object, &c.permission)
        });
        opinions.push(if trusted {
            Opinion::Grant
        } else {
            Opinion::Deny
        });
        if self.app_denied.contains(&c.id) {
            opinions.push(Opinion::Deny);
        }
        !opinions.contains(&Opinion::Deny) && opinions.contains(&Opinion::Grant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> (Tables, Component) {
        let c = Component::new(MiddlewareKind::Ejb, "D", "Bean1", "read");
        let mut t = Tables::default();
        for rows in [&mut t.trust, &mut t.middleware] {
            rows.assignments
                .insert(("u1".into(), "D".into(), "R".into()));
            rows.grants
                .insert(("D".into(), "R".into(), "Bean1".into(), "read".into()));
        }
        t.key_owner.insert("Ku1".into(), "u1".into());
        t.key_owner.insert("Ku2".into(), "u2".into());
        t.unix_users.insert("u1".into(), (1001, 100));
        t.unix_objects.insert(
            "Bean1".into(),
            UnixObj {
                owner: 1001,
                group: 100,
                mode: 0o400,
            },
        );
        (t, c)
    }

    const ALL: Layers = Layers {
        windows_os: true,
        unix_os: true,
        com: true,
        ejb: true,
        corba: true,
    };

    #[test]
    fn every_layer_must_agree() {
        let (mut t, c) = tables();
        assert!(t.permits(ALL, "u1", "Ku1", "R", &c));
        // Trust denies a principal outside the role.
        assert!(!t.permits(ALL, "u1", "Ku2", "R", &c));
        // Unix mode 0400 gives the owner read only.
        let write = Component::new(MiddlewareKind::Ejb, "D", "Bean1", "write");
        t.middleware
            .grants
            .insert(("D".into(), "R".into(), "Bean1".into(), "write".into()));
        t.trust
            .grants
            .insert(("D".into(), "R".into(), "Bean1".into(), "write".into()));
        assert!(!t.permits(ALL, "u1", "Ku1", "R", &write));
        // The application layer's deny list vetoes.
        t.app_denied.insert(c.id.clone());
        assert!(!t.permits(ALL, "u1", "Ku1", "R", &c));
    }
}
