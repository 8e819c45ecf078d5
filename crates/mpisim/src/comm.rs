//! Communicators: ordered groups of world ranks with a private matching id.

use std::sync::Arc;

/// A communicator handle.
///
/// Cheap to clone (the group is shared).  Each communicator owns a globally
/// unique id used for message matching, so traffic on different communicators
/// never mixes, and three matching contexts (point-to-point / collective /
/// one-sided) within the id, like MPI context ids.
#[derive(Debug, Clone)]
pub struct Comm {
    id: u64,
    /// `group[r]` = world rank of communicator rank `r`.
    group: Arc<Vec<usize>>,
    /// This process's rank inside the communicator.
    my_rank: usize,
    /// Membership epoch: 0 for communicators whose membership was never
    /// churned; each `comm_shrink` / `comm_grow` derives a communicator one
    /// epoch newer than its parent.  `Rank::send_checked` uses it to reject
    /// sends on a communicator whose membership has been superseded.
    epoch: u64,
}

impl Comm {
    pub(crate) fn new(id: u64, group: Arc<Vec<usize>>, my_rank: usize) -> Self {
        Self::new_at_epoch(id, group, my_rank, 0)
    }

    pub(crate) fn new_at_epoch(
        id: u64,
        group: Arc<Vec<usize>>,
        my_rank: usize,
        epoch: u64,
    ) -> Self {
        debug_assert!(my_rank < group.len());
        Self { id, group, my_rank, epoch }
    }

    /// Build a communicator from raw parts, outside the runtime.
    ///
    /// Only meant for tests of code that stores communicators; a communicator
    /// made this way cannot carry messages (its id is not registered).
    #[doc(hidden)]
    pub fn from_raw(id: u64, group: Arc<Vec<usize>>, my_rank: usize) -> Self {
        Self::new(id, group, my_rank)
    }

    /// Unique communicator id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Membership epoch (0 = never churned; see [`Comm::new_at_epoch`]'s
    /// field docs and `Rank::send_checked`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This process's rank in the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// World rank of communicator rank `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.group[r]
    }

    /// Communicator rank of a world rank, if it is a member.
    ///
    /// O(1) wherever the group keeps `world` at its own index (every rank
    /// of WORLD): members are unique, so `group[world] == world` is the
    /// only position `world` can have.  Otherwise the group is scanned.
    pub fn rank_of_world(&self, world: usize) -> Option<usize> {
        if self.group.get(world) == Some(&world) {
            return Some(world);
        }
        self.group.iter().position(|&w| w == world)
    }

    /// The ordered member list (communicator rank → world rank).
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    /// True when the given world rank belongs to this communicator.
    pub fn contains_world(&self, world: usize) -> bool {
        self.rank_of_world(world).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm() -> Comm {
        Comm::new(3, Arc::new(vec![4, 2, 7]), 1)
    }

    #[test]
    fn rank_translation() {
        let c = comm();
        assert_eq!(c.size(), 3);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.world_rank_of(0), 4);
        assert_eq!(c.world_rank_of(2), 7);
        assert_eq!(c.rank_of_world(7), Some(2));
        assert_eq!(c.rank_of_world(5), None);
        assert!(c.contains_world(2));
        assert!(!c.contains_world(0));
        // Rank 2 sits at its own index (the O(1) path), 0 and 1 do not.
        let c = Comm::new(3, Arc::new(vec![1, 0, 2]), 0);
        let ranks: Vec<_> = (0..4).map(|w| c.rank_of_world(w)).collect();
        assert_eq!(ranks, vec![Some(1), Some(0), Some(2), None]);
    }

    mim_util::props! {
        fn rank_of_world_matches_linear_scan(g) {
            // A permuted world, a sub-group of one (sorted, as `comm_split`
            // builds them, or in random order), or a world with a random
            // subset of ranks permuted among themselves (`[1, 0, 2]`).
            let n = g.gen_range(1usize..40);
            let mut group: Vec<usize> = (0..n).collect();
            match g.gen_range(0u8..4) {
                0 => g.shuffle(&mut group),
                1 => group.retain(|_| g.gen_range(0u8..2) == 0),
                2 => {
                    g.shuffle(&mut group);
                    group.truncate(g.gen_range(0..n + 1));
                }
                _ => {
                    let moved: Vec<usize> = (0..n).filter(|_| g.gen_range(0u8..2) == 0).collect();
                    let mut to = moved.clone();
                    g.shuffle(&mut to);
                    for (&p, w) in moved.iter().zip(to) {
                        group[p] = w;
                    }
                }
            }
            if group.is_empty() {
                group.push(n - 1);
            }
            let c = Comm::new(1, Arc::new(group.clone()), 0);
            for w in 0..n + 3 {
                assert_eq!(c.rank_of_world(w), group.iter().position(|&x| x == w), "{group:?} {w}");
                assert_eq!(c.contains_world(w), group.contains(&w));
            }
        }
    }
}
