//! Core YARN vocabulary: resources, applications, containers, requests.

use hiway_sim::NodeId;

/// A bundle of virtual cores and memory — YARN's unit of capacity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Resource {
    pub vcores: u32,
    pub memory_mb: u64,
}

impl Resource {
    pub const ZERO: Resource = Resource {
        vcores: 0,
        memory_mb: 0,
    };

    pub const fn new(vcores: u32, memory_mb: u64) -> Resource {
        Resource { vcores, memory_mb }
    }

    /// Whether `self` can accommodate `other`.
    pub fn fits(&self, other: &Resource) -> bool {
        self.vcores >= other.vcores && self.memory_mb >= other.memory_mb
    }

    pub fn subtract(&mut self, other: &Resource) {
        debug_assert!(self.fits(other), "capacity underflow");
        self.vcores -= other.vcores;
        self.memory_mb -= other.memory_mb;
    }

    pub fn add(&mut self, other: &Resource) {
        self.vcores += other.vcores;
        self.memory_mb += other.memory_mb;
    }
}

/// Identifier of a submitted application (one Hi-WAY AM per workflow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AppId(pub u32);

/// Identifier of an allocated container.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContainerId(pub u64);

/// Identifier of a pending container request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// An allocated container: a resource lease on one node.
#[derive(Clone, Copy, Debug)]
pub struct Container {
    pub id: ContainerId,
    pub app: AppId,
    pub node: NodeId,
    pub resource: Resource,
    /// The request this allocation satisfied.
    pub request: RequestId,
    /// Inherited from the request: shields the container from cross-queue
    /// preemption (AM containers).
    pub unpreemptable: bool,
}

/// An application's ask for one container.
#[derive(Clone, Copy, Debug)]
pub struct ContainerRequest {
    pub resource: Resource,
    /// Preferred node, if any.
    pub preference: Option<NodeId>,
    /// When `false` and a preference is set, the request waits until the
    /// preferred node has capacity (static schedulers). When `true`, the
    /// RM falls back to any node with room.
    pub relax_locality: bool,
    /// Containers from this request are never selected as cross-queue
    /// preemption victims. Set for AM containers: killing the AM kills
    /// the whole workflow, which preemption must not do.
    pub unpreemptable: bool,
}

impl ContainerRequest {
    /// An anywhere-is-fine request (FCFS / data-aware schedulers).
    pub fn anywhere(resource: Resource) -> ContainerRequest {
        ContainerRequest {
            resource,
            preference: None,
            relax_locality: true,
            unpreemptable: false,
        }
    }

    /// A request pinned to `node` (static schedulers).
    pub fn pinned(resource: Resource, node: NodeId) -> ContainerRequest {
        ContainerRequest {
            resource,
            preference: Some(node),
            relax_locality: false,
            unpreemptable: false,
        }
    }

    /// Shields the resulting container from cross-queue preemption.
    pub fn never_preempt(mut self) -> ContainerRequest {
        self.unpreemptable = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_fits_and_arithmetic() {
        let mut cap = Resource::new(4, 8000);
        let ask = Resource::new(2, 4000);
        assert!(cap.fits(&ask));
        cap.subtract(&ask);
        assert_eq!(cap, Resource::new(2, 4000));
        assert!(!cap.fits(&Resource::new(4, 100)));
        assert!(!cap.fits(&Resource::new(1, 8000)));
        cap.add(&ask);
        assert_eq!(cap, Resource::new(4, 8000));
    }

    #[test]
    fn request_constructors() {
        let r = ContainerRequest::anywhere(Resource::new(1, 1000));
        assert!(r.relax_locality && r.preference.is_none());
        assert!(!r.unpreemptable);
        let p = ContainerRequest::pinned(Resource::new(1, 1000), NodeId(3));
        assert!(!p.relax_locality);
        assert_eq!(p.preference, Some(NodeId(3)));
        assert!(p.never_preempt().unpreemptable);
    }
}
