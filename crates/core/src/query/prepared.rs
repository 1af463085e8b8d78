//! Prepared statements: a generated statement with its object-id
//! literal(s) left open.
//!
//! Everything the generators and the §5.5 modificator do depends on a
//! statement's *shape* — which generator, which action, which structure
//! view, which rules apply to the user — and never on the object id: the
//! modificator walks tables, bindings and rules, and the printer writes an
//! integer literal as its decimal digits whatever surrounds it. So a
//! session runs build → modify → print once per shape
//! (`Prepared::new`, the only place that sequence exists) and every later
//! statement of that shape is the printed text with the id spliced in
//! ([`Prepared::bind`]) — byte for byte what generating it afresh prints.

use pdm_obs::{kinds, Recorder};
use pdm_sql::Query;

use super::modificator::{ModError, ModReport, Modificator};
use super::{navigational, recursive, T_LINK};
use crate::product::ObjectId;

/// The statements a session generates, up to the object id(s) they name.
/// "The view" is the link table the session currently navigates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// The direct children of one node through the view
    /// ([`navigational::expand_query_in`]).
    Expand,
    /// The children of a whole frontier through the view, in one IN-list
    /// statement ([`navigational::expand_many_query`]); binds any number
    /// of ids.
    ExpandMany,
    /// Every node but the root, without structure
    /// ([`navigational::query_all_query`]).
    QueryAll,
    /// One object's row ([`navigational::fetch_node_query`]). Never
    /// modified: the root is already the user's (footnote 4) and a mount
    /// child is filtered after transfer.
    FetchNode,
    /// The recursive tree retrieval through the view
    /// ([`recursive::mle_query_in`]), with or without the root's own row.
    Mle { include_root: bool },
    /// The recursive retrieval over the physical structure whatever view
    /// is navigated ([`recursive::mle_query`]): the statement the §6
    /// check-out procedure runs.
    MlePhysical,
}

/// How a shape takes the user's rules: the span label and the modificator
/// entry point.
type Modify<'m> = (
    &'static str,
    fn(&Modificator<'m>, &mut Query) -> Result<ModReport, ModError>,
);

impl Shape {
    /// This shape's generator, run for `id` through the `view` link table.
    fn build(self, id: ObjectId, view: &str) -> Query {
        match self {
            Shape::Expand => navigational::expand_query_in(id, view),
            Shape::ExpandMany => navigational::expand_many_query(&[id], view),
            Shape::QueryAll => navigational::query_all_query(id),
            Shape::FetchNode => navigational::fetch_node_query(id),
            Shape::Mle { include_root } => recursive::mle_query_in(id, view, include_root),
            Shape::MlePhysical => recursive::mle_query_in(id, T_LINK, false),
        }
    }

    /// Navigational statements carry the row conditions when the strategy
    /// evaluates rules early (§4.1); a recursive statement exists only
    /// with its rules embedded (§5.5).
    fn modify<'m>(self, early: bool) -> Option<Modify<'m>> {
        match self {
            Shape::Expand | Shape::ExpandMany | Shape::QueryAll if early => {
                Some(("navigational", Modificator::modify_navigational))
            }
            Shape::Mle { .. } | Shape::MlePhysical => {
                Some(("recursive", Modificator::modify_recursive))
            }
            _ => None,
        }
    }
}

/// Two ids no product holds, of equal printed width and differing in every
/// digit. A statement is generated once with each; the positions where the
/// two texts differ are exactly the places the id is printed, so a rule
/// constant — present in both — can never be mistaken for one.
const HOLES: [ObjectId; 2] = [1_111_111_111_111_111_111, 2_222_222_222_222_222_222];

/// The most an id takes of an IN list: 20 digits and sign (`i64::MIN`) and
/// the `", "` that joins it to the next.
const ID_LIST_ITEM: usize = 20 + 2;

/// One prepared statement: the printed text around the places its id goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    /// The ids go between consecutive pieces.
    pieces: Vec<String>,
}

/// The stretches `a` (generated with `HOLES[0]`) and `b` (with `HOLES[1]`)
/// have in common, in order; `None` if they differ anywhere but in the
/// placeholder's digits. Where `a` reads like its placeholder and `b` reads
/// the same, that is a constant both carry and it stays in its piece.
fn shared_pieces(a: &str, b: &str) -> Option<Vec<String>> {
    let [hole_a, hole_b] = HOLES.map(|id| id.to_string());
    let mut parts = a.split(&hole_a);
    let first = parts.next()?;
    let mut rest = b.strip_prefix(first)?;
    let mut pieces = vec![first.to_string()];
    for part in parts {
        if let Some(after) = rest.strip_prefix(&hole_b) {
            rest = after;
            pieces.push(String::new());
        } else {
            rest = rest.strip_prefix(&hole_a)?;
            pieces.last_mut()?.push_str(&hole_a);
        }
        rest = rest.strip_prefix(part)?;
        pieces.last_mut()?.push_str(part);
    }
    rest.is_empty().then_some(pieces)
}

impl Prepared {
    /// Generate `shape` with each placeholder id — the existing generator,
    /// the modificator where [`Shape::modify`] says so (one
    /// `compile.modify` span for the shape) — print, and keep what the two
    /// texts share.
    pub(crate) fn new(
        shape: Shape,
        view: &str,
        modificator: &Modificator<'_>,
        early: bool,
        obs: &Recorder,
    ) -> Result<Prepared, ModError> {
        let mut queries = HOLES.map(|id| shape.build(id, view));
        if let Some((label, modify)) = shape.modify(early) {
            let span = obs.span(kinds::QUERY_MODIFY, label);
            for q in &mut queries {
                modify(modificator, q)?;
            }
            drop(span);
        }
        let [a, b] = queries.map(|q| q.to_string());
        // The generators print an id as its decimal digits and nothing
        // else of a statement depends on it; anything else here is a
        // generator that broke that, never a property of rules or data.
        let pieces = shared_pieces(&a, &b)
            .expect("a generated statement depends on its object id only through the id's digits");
        Ok(Prepared { pieces })
    }

    /// The statement for `ids`: one id for every shape but
    /// [`Shape::ExpandMany`], whose IN list takes them all (the printer
    /// joins list items with `", "`). One allocation: the text is sized for
    /// the widest ids before it is written.
    pub fn bind(&self, ids: &[ObjectId]) -> String {
        let list = ids.len() * ID_LIST_ITEM;
        let text = self.pieces.iter().map(String::len).sum::<usize>();
        let mut out = String::with_capacity(text + list * self.pieces.len().saturating_sub(1));
        for (i, piece) in self.pieces.iter().enumerate() {
            if i > 0 {
                crate::server::push_id_list(&mut out, ids);
            }
            out.push_str(piece);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // That the bound text is the generated text, for every shape, is
    // `tests/prepared_sql.rs`; here only what that cannot reach.
    #[test]
    fn pieces_are_what_the_two_texts_share() {
        let [a, b] = HOLES.map(|id| id.to_string());
        let text = |id: &str| format!("x = {id} AND y <= {a} AND z IN ({id})");
        let pieces = shared_pieces(&text(&a), &text(&b)).unwrap();
        assert_eq!(
            pieces,
            [
                "x = ".to_string(),
                format!(" AND y <= {a} AND z IN ("),
                ")".to_string()
            ]
        );
        let prepared = Prepared {
            pieces: pieces.clone(),
        };
        assert_eq!(
            prepared.bind(&[7, -8]),
            "x = 7, -8 AND y <= 1111111111111111111 AND z IN (7, -8)"
        );
        // The text is sized once: the widest ids fill it without growing it.
        let bound = prepared.bind(&[ObjectId::MIN; 3]);
        let text = pieces.iter().map(String::len).sum::<usize>();
        assert_eq!(bound.len(), text + 2 * (3 * 20 + 2 * 2));
        assert_eq!(bound.capacity(), text + 2 * 3 * ID_LIST_ITEM);
        // Texts that differ beyond the placeholder's digits share no split.
        assert_eq!(
            shared_pieces(&format!("x = {a}"), &format!("y = {b}")),
            None
        );
        assert_eq!(
            shared_pieces(&format!("x = {a}"), &format!("x = {b} ")),
            None
        );
    }
}
