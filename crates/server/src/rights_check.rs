//! The rights check every table-backed service's tests run: no command
//! succeeds with a capability that lacks a right the command needs, and
//! a refused command leaves its object as it was (§2.2: a server
//! accepts a request only if the rights field allows the operation).

use crate::proto::Status;
use crate::{ClientError, Command, ServiceClient};
use amoeba_cap::{Capability, Rights};
use bytes::Bytes;
use std::fmt::Debug;

/// One command under the check: one valid request for it.
pub struct Probe<'a> {
    /// The command id.
    pub command: u32,
    /// The rights the command needs of the presented capability.
    pub needs: Rights,
    /// Makes a fresh all-rights object for the command, and the params
    /// of one valid request on it.
    pub setup: &'a dyn Fn() -> (Capability, Bytes),
    /// The status a reply carries: the envelope's ([`reply_status`]),
    /// unless the command reports its outcome in the body.
    pub status: fn(&Result<Bytes, ClientError>) -> Status,
}

impl<'a> Probe<'a> {
    /// A probe whose refusal is the reply's own status.
    pub fn new(command: u32, needs: Rights, setup: &'a dyn Fn() -> (Capability, Bytes)) -> Self {
        Probe {
            command,
            needs,
            setup,
            status: reply_status,
        }
    }
}

/// The status of a reply's envelope.
///
/// # Panics
/// Panics on a transport failure or a malformed reply.
pub fn reply_status(reply: &Result<Bytes, ClientError>) -> Status {
    match reply {
        Ok(_) => Status::Ok,
        Err(ClientError::Status(s)) => *s,
        Err(e) => panic!("no reply status: {e}"),
    }
}

/// Checks a service's `commands` table against `probes`, one for each
/// command whose entry needs rights, with the same rights. Then, for
/// every probe and every right in its `needs`: the request sent with a
/// capability restricted (server-side, `STD_RESTRICT`) to lack just
/// that right is refused `RightsViolation`, and `read_back` shows the
/// object unchanged. Last, the same request with the full capability
/// must succeed, so each probe is a valid request.
///
/// # Panics
/// Panics, naming the command and the right, when a check fails.
pub fn assert_rights_enforced<S, T: PartialEq + Debug>(
    client: &ServiceClient,
    commands: &[Command<S>],
    probes: &[Probe<'_>],
    read_back: impl Fn(&Capability) -> T,
) {
    let mut declared: Vec<(u32, Rights)> = (commands.iter())
        .filter_map(|c| Some((c.id, c.needs?)))
        .filter(|(_, needs)| !needs.is_empty())
        .collect();
    let mut probed: Vec<(u32, Rights)> = probes.iter().map(|p| (p.command, p.needs)).collect();
    declared.sort_unstable();
    probed.sort_unstable();
    assert_eq!(probed, declared, "probes and the command table disagree");
    for probe in probes {
        let command = probe.command;
        for bit in probe.needs.iter_bits() {
            let right = Rights::bit(bit);
            let (cap, params) = (probe.setup)();
            let before = read_back(&cap);
            let lacking = (client.restrict(&cap, Rights::ALL.without(right)))
                .expect("the server restricts a fresh all-rights capability");
            let reply = client.call(&lacking, command, params);
            assert_eq!(
                (probe.status)(&reply),
                Status::RightsViolation,
                "command {command} without {right:?}"
            );
            assert_eq!(
                read_back(&cap),
                before,
                "command {command} without {right:?} changed its object"
            );
        }
        let (cap, params) = (probe.setup)();
        let reply = client.call(&cap, command, params);
        assert_eq!((probe.status)(&reply), Status::Ok, "command {command}");
    }
}
