//! An independent reference model of the engine's wait-for bookkeeping,
//! for join-shaped scripts: owners with several outstanding requests at
//! once, cancellations, and retirement between grant and acquisition.
//!
//! The model keeps holds and outstanding requests as plain maps. It finds a
//! deadlock by brute force, as a cycle through the requester in the
//! wait-for graph: an owner waits for the holder of every lock it has an
//! outstanding request for (the AND model). It looks for one after every
//! acquisition too, through the acquiring owner: an owner with another
//! outstanding request can close a cycle by acquiring. It counts
//! position-queue occupancy from scratch: a hold occupies the site it was
//! granted at, and so does a granted request not yet acquired. It shares no
//! code with the engine's RAG, so it can catch what oracles that all run
//! that RAG cannot.
//!
//! Locks are exclusive, and every request comes from a site no earlier step
//! used: no signature the engine learns can match a later request, so
//! avoidance never parks and the model needs none.

use crate::Gen;
use std::collections::BTreeMap;

/// One step of a join-shaped script. Owners and locks are indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `owner` requests `lock`, which it does not hold, from site `site`.
    Request {
        /// The requesting owner.
        owner: usize,
        /// The requested lock.
        lock: usize,
        /// A site no earlier step used.
        site: u32,
    },
    /// `owner` completes its granted request of `lock`, which is free.
    Acquire {
        /// The acquiring owner.
        owner: usize,
        /// The acquired lock.
        lock: usize,
    },
    /// `owner` releases `lock`, which it holds.
    Release {
        /// The releasing owner.
        owner: usize,
        /// The released lock.
        lock: usize,
    },
    /// `owner` withdraws its outstanding request of `lock`.
    Cancel {
        /// The withdrawing owner.
        owner: usize,
        /// The lock it no longer wants.
        lock: usize,
    },
    /// `owner` is retired: its holds are released and its outstanding
    /// requests withdrawn.
    Retire {
        /// The retired owner.
        owner: usize,
    },
}

/// The model's answer to a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No cycle runs through the requester: the request is granted.
    Granted,
    /// A cycle runs through the requester: the request is refused and stays
    /// outstanding until withdrawn.
    Deadlock,
}

/// An outstanding request: its site, and whether it was granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The site the request came from.
    pub site: u32,
    /// True once granted; a refused request stays `false`.
    pub granted: bool,
}

/// The reference model's state.
#[derive(Clone, Debug)]
pub struct Model {
    locks: usize,
    max_outstanding: usize,
    next_site: u32,
    /// Held locks: lock → (holder, site of its acquisition).
    held: BTreeMap<usize, (usize, u32)>,
    /// Per owner: lock → outstanding request.
    requests: Vec<BTreeMap<usize, Request>>,
    /// Cycles found so far, by requests and by acquisitions.
    detections: u64,
}

impl Model {
    /// A model of `owners` owners over `locks` locks, each owner with at
    /// most `max_outstanding` outstanding requests at once.
    pub fn new(owners: usize, locks: usize, max_outstanding: usize) -> Self {
        Model {
            locks,
            max_outstanding,
            next_site: 1,
            held: BTreeMap::new(),
            requests: vec![BTreeMap::new(); owners],
            detections: 0,
        }
    }

    /// `owner`'s outstanding requests, by lock.
    pub fn outstanding(&self, owner: usize) -> &BTreeMap<usize, Request> {
        &self.requests[owner]
    }

    /// Deadlocks detected so far: requests answered
    /// [`Verdict::Deadlock`], and acquisitions that closed a cycle through
    /// their owner (the acquisition itself completes).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Position-queue occupancy per site, recomputed from scratch: one
    /// occupant per hold at the site it was granted at, and one per granted
    /// request not yet acquired. Sites with no occupant are left out.
    pub fn occupancy(&self) -> BTreeMap<u32, usize> {
        let holds = self.held.values().map(|&(_, site)| site);
        let grants = self
            .requests
            .iter()
            .flat_map(|r| r.values().filter(|req| req.granted).map(|req| req.site));
        let mut out = BTreeMap::new();
        for site in holds.chain(grants) {
            *out.entry(site).or_insert(0) += 1;
        }
        out
    }

    /// Draws the next step for a random owner: a request (while it has
    /// fewer than the maximum outstanding), an acquisition of a granted
    /// request whose lock is free, a release, a cancellation, or, rarely, a
    /// retirement.
    pub fn plan(&mut self, g: &mut Gen) -> Step {
        let owner = g.range(0, self.requests.len());
        let mine = &self.requests[owner];
        let holds = |l: &usize| self.held.get(l).is_some_and(|&(h, _)| h == owner);
        let mut candidates = Vec::new();
        if mine.len() < self.max_outstanding {
            let free = (0..self.locks).filter(|l| !holds(l) && !mine.contains_key(l));
            let site = self.next_site;
            candidates.extend(free.map(|lock| Step::Request { owner, lock, site }));
        }
        let requests = candidates.len();
        for (&lock, req) in mine {
            if req.granted && !self.held.contains_key(&lock) {
                candidates.push(Step::Acquire { owner, lock });
            }
            candidates.push(Step::Cancel { owner, lock });
        }
        let held = self.held.iter().filter(|(_, &(h, _))| h == owner);
        candidates.extend(held.map(|(&lock, _)| Step::Release { owner, lock }));
        // Requests and the rest about evenly; a retirement one draw in 16.
        if g.range(0, 16) == 0 || candidates.is_empty() {
            return Step::Retire { owner };
        }
        let rest = candidates.len() - requests;
        let pick = if rest == 0 || (requests > 0 && g.flip()) {
            g.range(0, requests)
        } else {
            requests + g.range(0, rest)
        };
        let step = candidates[pick];
        if let Step::Request { .. } = step {
            self.next_site += 1;
        }
        step
    }

    /// Applies `step`; a request answers with the model's verdict.
    pub fn apply(&mut self, step: Step) -> Option<Verdict> {
        match step {
            Step::Request { owner, lock, site } => {
                let req = Request {
                    site,
                    granted: false,
                };
                self.requests[owner].insert(lock, req);
                if self.waits_for_itself(owner) {
                    self.detections += 1;
                    return Some(Verdict::Deadlock);
                }
                self.requests[owner].insert(
                    lock,
                    Request {
                        granted: true,
                        ..req
                    },
                );
                return Some(Verdict::Granted);
            }
            Step::Acquire { owner, lock } => {
                let req = self.requests[owner].remove(&lock).expect("outstanding");
                assert!(req.granted && !self.held.contains_key(&lock));
                self.held.insert(lock, (owner, req.site));
                self.detections += u64::from(self.waits_for_itself(owner));
            }
            Step::Release { owner, lock } => {
                assert_eq!(self.held.remove(&lock).map(|(h, _)| h), Some(owner));
            }
            Step::Cancel { owner, lock } => {
                self.requests[owner].remove(&lock).expect("outstanding");
            }
            Step::Retire { owner } => {
                self.requests[owner].clear();
                self.held.retain(|_, &mut (h, _)| h != owner);
            }
        }
        None
    }

    /// True if `owner` reaches itself in the wait-for graph: every owner it
    /// can reach is expanded once, breadth first.
    fn waits_for_itself(&self, owner: usize) -> bool {
        let successors = |o: usize| {
            let holders = self.requests[o].keys().filter_map(|l| self.held.get(l));
            holders.map(|&(h, _)| h).filter(move |&h| h != o)
        };
        let mut reached: Vec<usize> = successors(owner).collect();
        let mut next = 0;
        while let Some(&o) = reached.get(next) {
            if o == owner {
                return true;
            }
            next += 1;
            for s in successors(o) {
                if !reached.contains(&s) {
                    reached.push(s);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_through_a_second_request_is_a_deadlock() {
        let mut m = Model::new(2, 2, 3);
        let request = |owner, lock, site| Step::Request { owner, lock, site };
        assert_eq!(m.apply(request(0, 1, 1)), Some(Verdict::Granted));
        m.apply(Step::Acquire { owner: 0, lock: 1 });
        assert_eq!(m.apply(request(1, 0, 2)), Some(Verdict::Granted));
        assert_eq!(m.apply(request(1, 1, 3)), Some(Verdict::Granted));
        m.apply(Step::Acquire { owner: 1, lock: 0 });
        assert_eq!(m.apply(request(0, 0, 4)), Some(Verdict::Deadlock));
        assert_eq!(m.occupancy(), BTreeMap::from([(1, 1), (2, 1), (3, 1)]));
        m.apply(Step::Retire { owner: 1 });
        assert_eq!(m.occupancy(), BTreeMap::from([(1, 1)]));
        assert_eq!(m.outstanding(0).get(&0).map(|r| r.granted), Some(false));
    }

    #[test]
    fn an_acquisition_that_closes_a_cycle_is_counted() {
        let mut m = Model::new(3, 2, 3);
        let request = |owner, lock, site| Step::Request { owner, lock, site };
        for (owner, lock, site) in [(0, 1, 1), (2, 0, 2)] {
            assert_eq!(m.apply(request(owner, lock, site)), Some(Verdict::Granted));
            m.apply(Step::Acquire { owner, lock });
        }
        assert_eq!(m.apply(request(1, 0, 3)), Some(Verdict::Granted));
        assert_eq!(m.apply(request(1, 1, 4)), Some(Verdict::Granted));
        assert_eq!(m.apply(request(0, 0, 5)), Some(Verdict::Granted));
        m.apply(Step::Release { owner: 2, lock: 0 });
        assert_eq!(m.detections(), 0);
        m.apply(Step::Acquire { owner: 1, lock: 0 });
        assert_eq!(m.detections(), 1);
    }

    #[test]
    fn plans_are_valid_and_deterministic() {
        let run = |seed| {
            let (mut m, mut g) = (Model::new(3, 4, 3), Gen::new(seed));
            (0..200)
                .map(|_| {
                    let step = m.plan(&mut g);
                    m.apply(step);
                    step
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert!(run(5).iter().any(|s| matches!(s, Step::Retire { .. })));
    }
}
