//! One command table per service.
//!
//! A table-backed service declares its commands once, as a `const`
//! slice of [`Command`]s: the id, the rights the presented capability
//! needs, and the handler. [`dispatch`] serves every request from it,
//! so the standard commands, an unknown id and the turning of a
//! handler's outcome into a [`Reply`] are each written once, here. The
//! rights check itself stays in the table access a handler makes on
//! `req.cap` ([`ObjectTable::with_object`] and its kin), which takes
//! the entry's rights: a request pays one validation, and a right is
//! one bit of an AND and a comparison (§2.2).

use crate::proto::{Reply, Request, Status};
use crate::ObjectTable;
use amoeba_cap::Rights;
use bytes::Bytes;

/// A command's handler: the service, the request, and the rights the
/// command's entry declares, to pass to every table access on
/// `req.cap`. Returns the reply body, or the status refusing the
/// request.
pub type Handler<S> = fn(&S, &Request, Rights) -> Result<Bytes, Status>;

/// One entry of a service's command table.
pub struct Command<S> {
    /// The command id on the wire.
    pub id: u32,
    /// The rights the presented capability needs; `None` for an
    /// anonymous command, whose handler never reads `req.cap`.
    pub needs: Option<Rights>,
    /// Serves the command.
    pub run: Handler<S>,
}

impl<S> Command<S> {
    /// A command on the object `req.cap` names, which needs `needs`.
    pub const fn new(id: u32, needs: Rights, run: Handler<S>) -> Command<S> {
        Command {
            id,
            needs: Some(needs),
            run,
        }
    }

    /// An anonymous command (a create, an open, a query of the server).
    pub const fn anonymous(id: u32, run: Handler<S>) -> Command<S> {
        Command {
            id,
            needs: None,
            run,
        }
    }
}

/// Serves `req` from `commands`: the standard commands through
/// `table`, an id no entry declares with `BadCommand`, and any other by
/// its entry's handler, which is handed the entry's rights. Validates
/// nothing itself, so a request still pays one validation: the
/// handler's. The one place a handler's outcome becomes a reply.
pub fn dispatch<S, T>(
    service: &S,
    table: &ObjectTable<T>,
    commands: &[Command<S>],
    req: &Request,
) -> Reply {
    if let Some(reply) = table.handle_std(req) {
        return reply;
    }
    let Some(command) = commands.iter().find(|c| c.id == req.command) else {
        return Reply::status(Status::BadCommand);
    };
    match (command.run)(service, req, command.needs.unwrap_or(Rights::NONE)) {
        Ok(body) => Reply::ok(body),
        Err(status) => Reply::status(status),
    }
}
